package faultcast_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faultcast"
	"faultcast/internal/store"
)

// storeMatrix is the bit-identity property matrix: scenarios spanning
// graphs × models × faults, each crossed with every stopping-rule shape
// (fixed budget, half-width, almost-safe target) — ≥ 20 (scenario, rule)
// cells in all. For each cell the contract under test is the store's
// whole reason to exist: cold run ≡ first store-backed run ≡ warm repeat
// ≡ reopened-store repeat ≡ partial-budget-then-refine, bit for bit.
func storeMatrix() map[string]faultcast.Config {
	return map[string]faultcast.Config{
		"mp/omission/line": {
			Graph: faultcast.Line(12), Source: 0, Message: []byte("1"),
			Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.4,
			Algorithm: faultcast.SimpleOmission,
		},
		"mp/omission/grid-flooding": {
			Graph: faultcast.Grid(4, 4), Source: 0, Message: []byte("1"),
			Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.5,
			Algorithm: faultcast.Flooding,
		},
		"mp/malicious/tree": {
			Graph: faultcast.KaryTree(15, 2), Source: 0, Message: []byte("1"),
			Model: faultcast.MessagePassing, Fault: faultcast.Malicious, P: 0.3,
			Algorithm: faultcast.SimpleMalicious, Adversary: faultcast.FlipAdv,
		},
		"mp/limited/composed": {
			Graph: faultcast.Line(9), Source: 0, Message: []byte("1"),
			Model: faultcast.MessagePassing, Fault: faultcast.LimitedMalicious, P: 0.2,
			Algorithm: faultcast.Composed, Adversary: faultcast.FlipAdv,
		},
		"radio/omission/star": {
			Graph: faultcast.Star(6), Source: 1, Message: []byte("1"),
			Model: faultcast.Radio, Fault: faultcast.Omission, P: 0.3,
			Algorithm: faultcast.SimpleOmission,
		},
		"radio/omission/layered": {
			Graph: faultcast.Layered(3), Source: 0, Message: []byte("1"),
			Model: faultcast.Radio, Fault: faultcast.Omission, P: 0.4,
			Algorithm: faultcast.RadioRepeat,
		},
		"radio/malicious/line": {
			Graph: faultcast.Line(10), Source: 0, Message: []byte("1"),
			Model: faultcast.Radio, Fault: faultcast.Malicious, P: 0.05,
			Algorithm: faultcast.RadioRepeat, Adversary: faultcast.FlipAdv,
		},
	}
}

// storeRules crosses the matrix with every stopping-rule shape. The
// trial budget is deliberately not a multiple of the 32-trial batch, so
// every fixed-budget stream ends in a short tail bucket — the hardest
// alignment case for ruled replay.
func storeRules() map[string][]faultcast.EstimateOption {
	return map[string][]faultcast.EstimateOption{
		"budget":     nil,
		"halfwidth":  {faultcast.WithHalfWidth(0.06)},
		"almostsafe": {faultcast.WithAlmostSafeTarget()},
	}
}

const storeMatrixTrials = 300

func TestStoreBackedEstimateBitIdentity(t *testing.T) {
	cells := 0
	for name, cfg := range storeMatrix() {
		for rname, ropts := range storeRules() {
			cells++
			t.Run(name+"/"+rname, func(t *testing.T) {
				plan, err := faultcast.Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := append([]faultcast.EstimateOption{faultcast.WithBaseSeed(41)}, ropts...)

				cold, err := plan.Estimate(storeMatrixTrials, opts...)
				if err != nil {
					t.Fatal(err)
				}

				dir := t.TempDir()
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				var resumed int
				withStore := append(append([]faultcast.EstimateOption{}, opts...),
					faultcast.WithTallyStore(st),
					faultcast.WithResumeReport(func(n int) { resumed = n }))

				// First store-backed run: nothing stored, everything fresh.
				got, err := plan.Estimate(storeMatrixTrials, withStore...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("first store-backed run: %+v != cold %+v", got, cold)
				}
				if resumed != 0 {
					t.Fatalf("first run resumed %d trials from an empty store", resumed)
				}

				// Warm repeat: the whole stream must come back from the
				// store — zero simulation — and still match cold exactly.
				got, err = plan.Estimate(storeMatrixTrials, withStore...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("warm repeat: %+v != cold %+v", got, cold)
				}
				if resumed != cold.Trials {
					t.Fatalf("warm repeat simulated %d trials, want 0", cold.Trials-resumed)
				}
				// Recall answers the same request from the stored prefix
				// alone, with the same bits.
				if got, ok := plan.Recall(storeMatrixTrials, withStore...); !ok || !reflect.DeepEqual(got, cold) {
					t.Fatalf("recall: %+v ok=%v, want cold %+v", got, ok, cold)
				}

				// Reopened store (a new process over the same directory).
				st2, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				withStore2 := append(append([]faultcast.EstimateOption{}, opts...),
					faultcast.WithTallyStore(st2),
					faultcast.WithResumeReport(func(n int) { resumed = n }))
				got, err = plan.Estimate(storeMatrixTrials, withStore2...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("reopened store: %+v != cold %+v", got, cold)
				}
				if resumed != cold.Trials {
					t.Fatalf("reopened store simulated %d trials, want 0", cold.Trials-resumed)
				}

				// A smaller budget against the full stored stream: replay
				// must stop at the smaller budget's own cold boundaries and
				// never consume a bucket that overshoots it.
				half, err := plan.Estimate(storeMatrixTrials/2, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err = plan.Estimate(storeMatrixTrials/2, withStore2...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, half) {
					t.Fatalf("smaller budget over a fuller store: %+v != cold %+v", got, half)
				}

				// Partial budget first, then the full budget against a
				// fresh directory: the refinement resumes the stored
				// prefix (the first full batch is always aligned) and must
				// land on the cold bits exactly.
				st3, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				withStore3 := append(append([]faultcast.EstimateOption{}, opts...),
					faultcast.WithTallyStore(st3),
					faultcast.WithResumeReport(func(n int) { resumed = n }))
				if _, err := plan.Estimate(storeMatrixTrials/2, withStore3...); err != nil {
					t.Fatal(err)
				}
				got, err = plan.Estimate(storeMatrixTrials, withStore3...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("partial-then-refine: %+v != cold %+v", got, cold)
				}
				if resumed < 32 {
					t.Fatalf("refine resumed only %d trials of the stored half", resumed)
				}
			})
		}
	}
	if cells < 20 {
		t.Fatalf("property matrix has %d cells, want >= 20", cells)
	}
}

// TestStoreNeverShortensStream: a small budget against a longer stored
// stream re-simulates only its short tail, and that tail must not
// supersede the longer stored suffix — otherwise the next large request
// pays for the suffix again. Budgets 1000, 200, 1000 simulate 1000, 8
// and 0 trials, the 200-trial answer is the cold one, and the store
// never rewinds.
func TestStoreNeverShortensStream(t *testing.T) {
	plan, err := faultcast.Compile(faultcast.Config{
		Graph: faultcast.Line(8), Source: 0, Message: []byte("1"),
		Model: faultcast.MessagePassing, Fault: faultcast.Omission, P: 0.5,
		Rounds: 18, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var resumed int
	opts := []faultcast.EstimateOption{
		faultcast.WithTallyStore(st),
		faultcast.WithResumeReport(func(n int) { resumed = n }),
	}
	for i, step := range []struct{ trials, simulated int }{{1000, 1000}, {200, 8}, {1000, 0}} {
		got, err := plan.Estimate(step.trials, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if sim := got.Trials - resumed; sim != step.simulated {
			t.Fatalf("step %d (%d trials) simulated %d, want %d", i, step.trials, sim, step.simulated)
		}
		cold, err := plan.Estimate(step.trials)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Fatalf("step %d: %+v != cold %+v", i, got, cold)
		}
	}
	if rw := st.Stats().Rewinds; rw != 0 {
		t.Fatalf("store rewound %d times", rw)
	}
}

// TestStoreBackedEstimateSurvivesCorruption: a store whose segment was
// truncated or bit-flipped must still produce cold-identical estimates —
// the intact prefix resumes, the rest re-simulates, and the appended
// batches heal the file.
func TestStoreBackedEstimateSurvivesCorruption(t *testing.T) {
	cfg := storeMatrix()["mp/omission/grid-flooding"]
	plan, err := faultcast.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plan.Estimate(storeMatrixTrials, faultcast.WithBaseSeed(41))
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"truncate", "bitflip"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Estimate(storeMatrixTrials,
				faultcast.WithBaseSeed(41), faultcast.WithTallyStore(st)); err != nil {
				t.Fatal(err)
			}
			infos, err := store.Scan(dir)
			if err != nil || len(infos) != 1 {
				t.Fatalf("Scan: %v, %v", infos, err)
			}
			data, err := os.ReadFile(infos[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "truncate":
				data = data[:len(data)*2/3]
			case "bitflip":
				data[len(data)/2] ^= 0x10
			}
			if err := os.WriteFile(infos[0].Path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var resumed int
			got, err := plan.Estimate(storeMatrixTrials,
				faultcast.WithBaseSeed(41), faultcast.WithTallyStore(st2),
				faultcast.WithResumeReport(func(n int) { resumed = n }))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("%s: %+v != cold %+v", mode, got, cold)
			}
			if resumed >= cold.Trials {
				t.Fatalf("%s: resumed %d of %d trials from a damaged store", mode, resumed, cold.Trials)
			}
			if s := st2.Stats(); s.CorruptRecordsSkipped == 0 {
				t.Fatalf("%s: corruption not counted: %+v", mode, s)
			}

			// The refinement healed the file: one more pass is fully warm.
			st3, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err = plan.Estimate(storeMatrixTrials,
				faultcast.WithBaseSeed(41), faultcast.WithTallyStore(st3),
				faultcast.WithResumeReport(func(n int) { resumed = n }))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cold) || resumed != cold.Trials {
				t.Fatalf("%s: healed pass resumed %d, got %+v", mode, resumed, got)
			}
		})
	}
}

// TestSweepWithTallyStore: a store-backed sweep must emit cell results
// bit-identical to a storeless run, and a second pass over the same
// store must simulate nothing.
func TestSweepWithTallyStore(t *testing.T) {
	spec := faultcast.SweepSpec{
		Graphs: []faultcast.SweepGraph{
			{Spec: "line:10"},
			{Spec: "grid:4x4"},
		},
		Models: []faultcast.Model{faultcast.MessagePassing, faultcast.Radio},
		Ps:     []float64{0.2, 0.5},
		Seed:   7,
		Budget: faultcast.CellBudget{Trials: 200, AlmostSafe: true},
	}
	sp, err := faultcast.CompileSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sp.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sp.Collect(context.Background(), faultcast.WithSweepTallyStore(st))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sp.Collect(context.Background(), faultcast.WithSweepTallyStore(st2))
	if err != nil {
		t.Fatal(err)
	}

	if len(first) != len(cold) || len(warm) != len(cold) {
		t.Fatalf("cell counts: cold %d, first %d, warm %d", len(cold), len(first), len(warm))
	}
	for i := range cold {
		if !reflect.DeepEqual(first[i].Estimate, cold[i].Estimate) {
			t.Fatalf("cell %d first pass: %+v != cold %+v", i, first[i].Estimate, cold[i].Estimate)
		}
		if first[i].Resumed != 0 {
			t.Fatalf("cell %d first pass resumed %d from an empty store", i, first[i].Resumed)
		}
		if !reflect.DeepEqual(warm[i].Estimate, cold[i].Estimate) {
			t.Fatalf("cell %d warm pass: %+v != cold %+v", i, warm[i].Estimate, cold[i].Estimate)
		}
		if warm[i].Resumed != warm[i].Estimate.Trials {
			t.Fatalf("cell %d warm pass simulated %d trials, want 0",
				i, warm[i].Estimate.Trials-warm[i].Resumed)
		}
	}

	// Cells sharing a compiled plan but differing in p get distinct
	// segments: one per (plan fingerprint, derived seed, batch) triple.
	infos, err := store.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(cold) {
		t.Fatalf("Scan found %d segments for %d cells", len(infos), len(cold))
	}
	for _, si := range infos {
		if filepath.Ext(si.Path) != ".tally" || !si.Clean() {
			t.Fatalf("segment %+v", si)
		}
	}
}
