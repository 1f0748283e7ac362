package harness

import (
	"bytes"
	"fmt"

	"faultcast"
	"faultcast/internal/adversary"
	"faultcast/internal/graph"
	"faultcast/internal/protocols/simplemalicious"
	"faultcast/internal/protocols/simpleomission"
	"faultcast/internal/protocols/twonode"
	"faultcast/internal/sim"
	"faultcast/internal/stat"
)

// RunE1 exercises Theorem 2.1: Simple-Omission is almost-safe for any
// p < 1 in both the message passing and the radio model. The whole grid
// is one declarative sweep — graphs × models × ps, every cell scheduled
// on one shared worker pool.
func RunE1(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E1 (Thm 2.1) — Simple-Omission under node-omission failures",
		Note:    "PASS = measured success rate >= 1 - 1/n (window m = ceil(c·log n), c from p)",
		Headers: []string{"graph", "model", "p", "m", "rounds", "success", "95% CI", "target", "verdict"},
	}
	ps := []float64{0.3, 0.5, 0.7}
	if !o.Quick {
		ps = append(ps, 0.9)
	}
	graphs := standardGraphs(o)
	results := runSweep(faultcast.SweepSpec{
		Graphs:     sweepGraphs(graphs),
		Models:     []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Faults:     []faultcast.Fault{faultcast.Omission},
		Algorithms: []faultcast.Algorithm{faultcast.SimpleOmission},
		Ps:         ps,
		Seed:       o.Seed,
		Budget:     o.sweepBudget(true),
	})
	i := 0
	for _, ng := range graphs {
		for _, model := range []sim.Model{sim.MessagePassing, sim.Radio} {
			for _, p := range ps {
				res := results[i]
				i++
				proto := simpleomission.New(ng.g, ng.src, model, omissionWindowC(p))
				target := almostSafe(ng.g.N())
				est := res.Estimate
				t.AddRow(ng.g.Name(), model.String(), p, proto.WindowLen(), res.Cell.Rounds(),
					est.Rate, fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi), target, verdict(est.Hi >= target))
				o.logf("E1 %s/%s p=%.2f: %v", ng.g.Name(), model, p, est)
			}
		}
	}
	return []*Table{t}
}

// RunE2 exercises Theorem 2.2: Simple-Malicious in the message passing
// model is almost-safe for p < 1/2 and collapses above — a one-graph
// sweep along the p axis across the threshold.
func RunE2(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E2 (Thm 2.2) — Simple-Malicious, message passing, flipping adversary",
		Note:    "feasible iff p < 1/2: below-threshold rows must PASS, above-threshold rows must FAIL",
		Headers: []string{"graph", "p", "m", "success", "95% CI", "target", "below 1/2", "verdict"},
	}
	g := graph.KaryTree(31, 2)
	if o.Quick {
		g = graph.KaryTree(15, 2)
	}
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.6}
	results := runSweep(faultcast.SweepSpec{
		Graphs:      []faultcast.SweepGraph{{Graph: g}},
		Models:      []faultcast.Model{faultcast.MessagePassing},
		Faults:      []faultcast.Fault{faultcast.Malicious},
		Adversaries: []faultcast.AdversaryKind{faultcast.FlipAdv},
		Algorithms:  []faultcast.Algorithm{faultcast.SimpleMalicious},
		Ps:          ps,
		Seed:        o.Seed,
		Budget:      o.sweepBudget(true),
	})
	for i, p := range ps {
		proto := simplemalicious.New(g, 0, sim.MessagePassing, maliciousWindowC(p))
		target := almostSafe(g.N())
		est := results[i].Estimate
		below := p < 0.5
		pass := est.Hi >= target
		if !below {
			pass = est.Low < target // above threshold the algorithm must NOT be almost-safe
		}
		t.AddRow(g.Name(), p, proto.WindowLen(), est.Rate,
			fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi), target, below, verdict(pass))
		o.logf("E2 p=%.2f: %v", p, est)
	}
	return []*Table{t}
}

// RunE3 exercises Theorem 2.3: at and above p = 1/2 the equivocating
// adversary pins the receiver's success probability at 1/2 regardless of
// the running time.
func RunE3(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E3 (Thm 2.3) — equivocator on K2, message passing, p >= 1/2",
		Note:    "success must hover at 0.5 for every p >= 1/2 and EVERY window length (longer runs don't help)",
		Headers: []string{"p", "c", "rounds", "success", "95% CI", "pinned at 1/2", "verdict"},
	}
	g := graph.TwoNode()
	// Odd window lengths (on K2, m = ceil(c)) eliminate vote ties, whose
	// default-"0" resolution would otherwise bias measured success above
	// 1/2 without conveying any information about the source message.
	cs := []float64{5, 17, 65}
	if o.Quick {
		cs = []float64{5, 17}
	}
	for _, p := range []float64{0.5, 0.6, 0.75, 0.9} {
		for _, c := range cs {
			proto := simplemalicious.New(g, 0, sim.MessagePassing, c)
			// Stop early only once a band wider than the 99.9% pinned-
			// verdict band is decided against 1/2, so a truly pinned cell
			// still runs its full sample.
			est := estimateCell(o.Trials*4, o.cellSeed(fmt.Sprintf("E3|p=%v|c=%v", p, c)), o.stopRule(0.5, 3.29),
				bitTrial(func(msg []byte) *sim.Config {
					return &sim.Config{
						Graph: g, Model: sim.MessagePassing, Fault: sim.Malicious, P: p,
						Source: 0, SourceMsg: msg,
						NewNode: proto.NewNode, Rounds: proto.Rounds(),
						Adversary: adversary.Equivocator{M0: []byte("0"), M1: []byte("1"), SourceOnly: true},
					}
				}, func(seed uint64) uint64 { return seed * 2654435761 },
					func(res *sim.Result, _ []byte) bool { return res.Success }))
			lo, hi := est.Wilson(1.96)
			// The pinned check spans 12 cells; use a 99.9% band so the
			// family-wise false-alarm rate stays small.
			wlo, whi := est.Wilson(3.29)
			pinned := wlo <= 0.5 && 0.5 <= whi
			t.AddRow(p, c, proto.Rounds(), est.Rate(),
				fmt.Sprintf("[%.3f,%.3f]", lo, hi), pinned, verdict(pinned))
			o.logf("E3 p=%.2f c=%v: %v", p, c, est)
		}
	}
	return []*Table{t}
}

// starTrials compiles the Theorem 2.4 star scenario (source at a leaf)
// once per cell and scores each trial on whether the ROOT decoded the
// message — the node the impossibility argument is about.
func starTrials(delta int, p, c float64, mkAdv func() sim.Adversary) stat.TrialMaker {
	g := graph.Star(delta + 1)
	const source = 1
	proto := simplemalicious.New(g, source, sim.Radio, c)
	return bitTrial(func(msg []byte) *sim.Config {
		return &sim.Config{
			Graph: g, Model: sim.Radio, Fault: sim.Malicious, P: p,
			Source: source, SourceMsg: msg,
			NewNode: proto.NewNode, Rounds: proto.Rounds(),
			Adversary: mkAdv(),
		}
	}, func(seed uint64) uint64 { return seed*2654435761 + 99 },
		func(res *sim.Result, msg []byte) bool { return bytes.Equal(res.Outputs[0], msg) })
}

// RunE4 exercises the feasibility direction of Theorem 2.4: malicious
// radio broadcasting succeeds for p < p* = fix(p = (1-p)^(Δ+1)). Each
// graph's p and window constant co-vary with its degree, so the sweep
// uses explicit cells rather than a cross product.
func RunE4(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E4 (Thm 2.4 feasibility) — Simple-Malicious, radio, p below (1-p)^(Δ+1)",
		Note:    "whole-graph success >= 1 - 1/n below the threshold p*(Δ)",
		Headers: []string{"graph", "Δ", "p*", "p", "m", "success", "95% CI", "target", "verdict"},
	}
	graphs := []namedGraph{{graph.Line(16), 0}, {graph.Star(5), 1}, {graph.KaryTree(13, 3), 0}}
	if o.Quick {
		graphs = graphs[:2]
	}
	cells := make([]faultcast.Config, len(graphs))
	for i, ng := range graphs {
		delta := ng.g.MaxDegree()
		pStar := stat.RadioThreshold(delta)
		p := pStar * 0.5
		q := pow(1-p, delta+1)
		cells[i] = faultcast.Config{
			Graph: ng.g, Source: ng.src, Message: []byte("1"),
			Model: faultcast.Radio, Fault: faultcast.Malicious, P: p,
			Algorithm: faultcast.SimpleMalicious, Adversary: faultcast.FlipAdv,
			WindowC: maliciousWindowC(p/(p+q)) * (2 / q),
		}
	}
	results := runSweep(faultcast.SweepSpec{
		Cells:  cells,
		Seed:   o.Seed,
		Budget: o.sweepBudget(true),
	})
	for i, ng := range graphs {
		delta := ng.g.MaxDegree()
		pStar := stat.RadioThreshold(delta)
		proto := simplemalicious.New(ng.g, ng.src, sim.Radio, cells[i].WindowC)
		target := almostSafe(ng.g.N())
		est := results[i].Estimate
		t.AddRow(ng.g.Name(), delta, pStar, cells[i].P, proto.WindowLen(), est.Rate,
			fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi), target, verdict(est.Hi >= target))
		o.logf("E4 %s: %v", ng.g.Name(), est)
	}
	return []*Table{t}
}

// RunE5 exercises the impossibility direction of Theorem 2.4: at and above
// p*, the star adversary pins the root's decode probability at 1/2.
func RunE5(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E5 (Thm 2.4 impossibility) — star adversary, radio, p >= (1-p)^(Δ+1)",
		Note:    "root decode probability must hover at 0.5 at and above p*(Δ); well below p* it must recover",
		Headers: []string{"Δ", "p*", "p", "regime", "root correct", "95% CI", "verdict"},
	}
	deltas := []int{2, 4}
	if !o.Quick {
		deltas = append(deltas, 8)
	}
	adv := func() sim.Adversary {
		return adversary.Star{M0: []byte("0"), M1: []byte("1")}
	}
	for _, delta := range deltas {
		pStar := stat.RadioThreshold(delta)
		cases := []struct {
			p      float64
			regime string
		}{
			{pStar * 0.4, "below"},
			{pStar, "at"},
			{minF(pStar*1.5, 0.9), "above"},
		}
		for _, tc := range cases {
			c := 8.0
			rule := o.stopRule(0.5, 3.29) // pinned rows read the 99.9% band
			if tc.regime == "below" {
				q := pow(1-tc.p, delta+1)
				c = maliciousWindowC(tc.p/(tc.p+q)) * (2 / q)
				rule = o.stopRule(0.9, 1.96) // recovery rows read lo > 0.9
			}
			est := estimateCell(o.Trials*4, o.cellSeed(fmt.Sprintf("E5|delta=%d|p=%v", delta, tc.p)), rule,
				starTrials(delta, tc.p, c, adv))
			lo, hi := est.Wilson(1.96)
			wlo, whi := est.Wilson(3.29) // family-wise band, as in E3
			var pass bool
			if tc.regime == "below" {
				pass = lo > 0.9
			} else {
				pass = wlo <= 0.5 && 0.5 <= whi
			}
			t.AddRow(delta, pStar, tc.p, tc.regime, est.Rate(),
				fmt.Sprintf("[%.3f,%.3f]", lo, hi), verdict(pass))
			o.logf("E5 Δ=%d %s: %v", delta, tc.regime, est)
		}
	}
	return []*Table{t}
}

// RunE6 exercises the two-node timing protocol: almost-safe for ANY p < 1
// under limited malicious failures, with error e^(-Θ(m)) for bit 0 and
// zero error for bit 1. The grid is a three-axis sweep — message bit ×
// window length (as WindowC: TimingBit reads m from it) × p — with no
// early stopping, since the verdict is two-sided.
func RunE6(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "E6 (§2.2.2) — 'hello' timing protocol on K2, limited malicious, dropping adversary",
		Headers: []string{"p", "m", "bit", "success", "95% CI", "predicted", "verdict"},
	}
	ms := []int{16, 64, 256}
	if o.Quick {
		ms = []int{16, 64}
	}
	ps := []float64{0.3, 0.5, 0.7, 0.85}
	rows0 := len(ms) * len(ps)
	t.Note = fmt.Sprintf("bit 1 never errs; bit 0 success must match the exact closed form P[two consecutive healthy steps in 2m] — decaying error for any p < 1. "+
		"Bit-0 rows pass when the closed form lies in the 99.9%% Wilson band (z = 3.29), so by the union bound a correct engine fails one of the %d bit-0 rows with probability about %.1f%% at most",
		rows0, 0.1*float64(rows0))
	bits := []string{string(twonode.Bit0), string(twonode.Bit1)}
	cs := make([]float64, len(ms))
	for i, m := range ms {
		cs[i] = float64(m)
	}
	results := runSweep(faultcast.SweepSpec{
		Graphs:      []faultcast.SweepGraph{{Graph: graph.TwoNode()}},
		Models:      []faultcast.Model{faultcast.MessagePassing},
		Faults:      []faultcast.Fault{faultcast.LimitedMalicious},
		Adversaries: []faultcast.AdversaryKind{faultcast.CrashAdv},
		Algorithms:  []faultcast.Algorithm{faultcast.TimingBit},
		Messages:    bits,
		WindowCs:    cs,
		Ps:          ps,
		Seed:        o.Seed,
		Budget:      o.sweepBudget(false),
	})
	for pi, p := range ps {
		for mi, m := range ms {
			for bi, bit := range bits {
				// Expansion order: Messages × WindowCs × Ps (ps innermost).
				est := results[(bi*len(ms)+mi)*len(ps)+pi].Estimate
				// Bit 1 is deterministic; bit 0 succeeds iff the execution
				// contains two consecutive healthy steps among 2m.
				predicted := 1.0
				if bit == "0" {
					predicted = probConsecutivePair(2*m, 1-p)
				}
				// Every bit-0 row reads one band: check the 99.9% band, as
				// E3 and E5 do, to bound the family-wise false-alarm rate.
				wlo, whi := stat.Proportion{Successes: est.Succeeds, Trials: est.Trials}.Wilson(3.29)
				pass := wlo <= predicted && predicted <= whi
				if bit == "1" {
					pass = est.Rate == 1
				}
				t.AddRow(p, m, bit, est.Rate,
					fmt.Sprintf("[%.3f,%.3f]", est.Low, est.Hi), predicted, verdict(pass))
			}
		}
		o.logf("E6 p=%.2f done", p)
	}
	return []*Table{t}
}

// probConsecutivePair returns the probability that a sequence of `rounds`
// independent Bernoulli(q) trials contains at least two consecutive
// successes — the exact bit-0 success probability of the timing protocol
// against a dropping adversary. Computed by the standard linear DP over
// (no-pair-yet, last-trial-outcome) states.
func probConsecutivePair(rounds int, q float64) float64 {
	if rounds < 2 {
		return 0
	}
	// noPairEnd0/noPairEnd1: probability of no pair so far with the last
	// trial failed/succeeded.
	noPairEnd0, noPairEnd1 := 1-q, q
	for i := 1; i < rounds; i++ {
		noPairEnd0, noPairEnd1 = (noPairEnd0+noPairEnd1)*(1-q), noPairEnd0*q
	}
	return 1 - (noPairEnd0 + noPairEnd1)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
