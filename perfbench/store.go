package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"faultcast"
	"faultcast/internal/store"
	"faultcast/internal/telemetry"
)

// storeFillBudget is the per-cell budget store-topup's set-up fills the
// store to; each top-up step then adds one storeBatch per cell.
const storeFillBudget = 64

// storeCycle is how many replay + top-up pairs run before the store
// directory is put back to its state after the fill (untimed), so every
// cycle reads and writes logs of the same lengths however fast the host
// runs the steps.
const storeCycle = 8

// timedStore wraps the durable store to time LoadTally and AppendTally.
type timedStore struct {
	s   *store.Store
	l   *ledger
	run *telemetry.Span // the pass's run span; appends hang under it
}

func (t *timedStore) LoadTally(planKey string, baseSeed uint64, batch int) ([]faultcast.TallyBucket, error) {
	t0 := time.Now()
	b, err := t.s.LoadTally(planKey, baseSeed, batch)
	d := time.Since(t0)
	t.l.add("store.loads", 1)
	t.l.add("store.load_s", d.Seconds())
	t.l.sample("store.load", ms(d))
	return b, err
}

func (t *timedStore) AppendTally(planKey string, baseSeed uint64, batch int, start int, buckets []faultcast.TallyBucket) error {
	sp := t.run.StartChild("store.append")
	t0 := time.Now()
	err := t.s.AppendTally(planKey, baseSeed, batch, start, buckets)
	d := time.Since(t0)
	sp.End()
	t.l.add("store.appends", 1)
	t.l.add("store.append_s", d.Seconds())
	t.l.sample("store.append", ms(d))
	return err
}

// memStore is the reference's recorder: an empty in-memory TallyStore
// that keeps every appended bucket, so one cold run at the final budget
// yields the cold answer at every smaller budget as a bucket prefix sum.
type memStore struct {
	mu      sync.Mutex
	buckets map[string][]faultcast.TallyBucket
}

func (m *memStore) LoadTally(string, uint64, int) ([]faultcast.TallyBucket, error) { return nil, nil }

func (m *memStore) AppendTally(planKey string, baseSeed uint64, _ int, _ int, b []faultcast.TallyBucket) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := fmt.Sprintf("%s/%d", planKey, baseSeed)
	m.buckets[k] = append(m.buckets[k], b...)
	return nil
}

// step is one warm restart: open the store, compile, run the grid.
type step struct {
	budget int
	p      *pass
}

func storeStep(dir string, seed uint64, budget int, l *ledger, span *telemetry.Span) (*step, error) {
	t0, cpu0 := time.Now(), cpuSeconds()
	osp := span.StartChild("store.open")
	s, err := store.Open(dir)
	osp.End()
	if err != nil {
		return nil, err
	}
	open := time.Since(t0)
	h := passHooks{span: span, l: l, probe: l != nil}
	if l != nil {
		ts := &timedStore{s: s, l: l}
		h.opts = []faultcast.SweepOption{faultcast.WithSweepTallyStore(ts)}
		h.onRun = func(sp *telemetry.Span) { ts.run = sp }
		l.add("store.open_s", open.Seconds())
	} else {
		h.opts = []faultcast.SweepOption{faultcast.WithSweepTallyStore(s)}
	}
	p, _, err := runPass(context.Background(), storeSpec(seed, budget), h)
	if err != nil {
		return nil, err
	}
	p.wall += open // a restart's answer time includes store.Open
	p.cpu = cpuSeconds() - cpu0
	if l != nil {
		for _, res := range p.resumed {
			l.add("store.resumed_trials", float64(res))
		}
	}
	return &step{budget: budget, p: p}, nil
}

// copyStore copies the flat store directory src to dst.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeReference runs store-topup's grid cold, untimed, at the largest
// budget a cycle reaches, into an empty in-memory recorder. A cold run at
// any smaller budget is a prefix of its buckets, so the returned function
// gives the cold answer at each budget, which every step must equal.
func storeReference(r *run, cells int) (func(budget int) []tally, error) {
	budget := storeFillBudget + storeCycle*storeBatch
	mem := &memStore{buckets: map[string][]faultcast.TallyBucket{}}
	ref, sp, err := runPass(context.Background(), storeSpec(r.seed, budget), passHooks{opts: []faultcast.SweepOption{faultcast.WithSweepTallyStore(mem)}})
	if err != nil {
		return nil, err
	}
	if ref.simulated != cells*budget {
		r.fail("reference simulated %d trials, want %d", ref.simulated, cells*budget)
	}
	for i, c := range sp.Cells() {
		if core := c.Plan().EstimationCore(); core != "lanes" {
			r.fail("cell %d runs on the %s core, want lanes", i, core)
		}
	}
	return func(budget int) []tally {
		want := make([]tally, len(sp.Cells()))
		for i, c := range sp.Cells() {
			for _, b := range mem.buckets[fmt.Sprintf("%s/%d", c.PlanKey, c.Config.Seed)] {
				if want[i].trials+b.Trials > budget {
					break
				}
				want[i].trials += b.Trials
				want[i].successes += b.Successes
			}
		}
		return want
	}, nil
}

func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n)
}

func storeTopup(r *run) error {
	st := &sweepTiming{}
	// Each set-up fills a directory of its own; the earlier ones are
	// removed only after the last, so no fill runs while the filesystem
	// is still freeing the one before it.
	var dirs []string
	var fill *step
	err := setups(r, func() (err error) {
		dirs = append(dirs, filepath.Join(r.workDir, fmt.Sprintf("store-%d", len(dirs))))
		fill, err = storeStep(dirs[len(dirs)-1], r.seed, storeFillBudget, nil, nil)
		return err
	}, func() {})
	if err != nil {
		return err
	}
	dir := dirs[len(dirs)-1]
	for _, d := range dirs[:len(dirs)-1] {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	cells := len(fill.p.tallies)
	if want := cells * storeFillBudget; fill.p.simulated != want {
		r.fail("cold fill simulated %d trials, want %d", fill.p.simulated, want)
	}

	filled := dir + "-filled"
	if err := copyStore(dir, filled); err != nil {
		return err
	}
	want, err := storeReference(r, cells)
	if err != nil {
		return err
	}
	checkAgainst(r, "cold fill vs cold run", fill.p.tallies, want(storeFillBudget))

	l := newLedger()
	col := telemetry.NewCollector(4, 1)
	budget := storeFillBudget
	start := time.Now()
	for pair := 0; pair < 2 || time.Since(start) < r.window; pair++ {
		if pair > 0 && pair%storeCycle == 0 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := copyStore(filled, dir); err != nil {
				return err
			}
			budget = storeFillBudget
		}
		k0 := r.speed.at()
		traced := r.trace && pair%2 == 1
		var tl *ledger
		var tr *telemetry.Trace
		var rt *runtimeDelta
		var bytes0 float64
		if traced {
			tl, tr, rt, bytes0 = l, col.StartTrace("iteration"), startRuntime(), dirBytes(dir)
		}
		runtime.GC() // every timed step starts from a collected heap
		replay, err := storeStep(dir, r.seed, budget, tl, tr.Root())
		if err != nil {
			return err
		}
		budget += storeBatch
		k1 := r.speed.at()
		runtime.GC()
		topup, err := storeStep(dir, r.seed, budget, tl, tr.Root())
		if err != nil {
			return err
		}
		k2 := r.speed.at()
		wall := replay.p.wall + topup.p.wall
		if traced {
			l.add("store.bytes_written", dirBytes(dir)-bytes0)
			rt.finish(l)
			tr.Finish()
			selfTimes(l, tr.Root(), "")
			r.spans = append(r.spans, tr.Export())
			st.tracedWalls = append(st.tracedWalls, wall.Seconds())
		} else {
			st.walls = append(st.walls, wall.Seconds())
			st.call(replay.p, true)
			st.call(topup.p, false)
			st.add(true, replay.p.cpu*1e3, 1, (k0+k1)/2)
			st.add(false, topup.p.cpu*1e3, 1, (k1+k2)/2)
		}
		// Gate: a replay step simulates nothing and resumes everything; a
		// top-up step simulates exactly one batch per cell.
		for _, s := range []*step{replay, topup} {
			r.attempted += len(s.p.tallies)
			r.failed += s.p.errored
		}
		if replay.p.simulated != 0 {
			r.fail("replay step at budget %d simulated %d trials", replay.budget, replay.p.simulated)
		}
		if want := cells * storeBatch; topup.p.simulated != want {
			r.fail("top-up step at budget %d simulated %d trials, want %d", topup.budget, topup.p.simulated, want)
		}
		for _, s := range []*step{replay, topup} {
			checkAgainst(r, fmt.Sprintf("store step at budget %d vs cold run", s.budget), s.p.tallies, want(s.budget))
		}
	}
	st.publish(r)
	if r.trace {
		st.publishTraced(r, l)
		// The stop-rule guard is taken on the cold fill, which is the same
		// for every run of a seed.
		r.set("stat.trials_to_decide", "count", float64(fill.p.simulated))
		r.set("stat.cells_at_budget", "count", float64(cells))
	}

	return nil
}
