package faultcast

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestSharedPlanIdentity: a plan lends its runners to one trial or block
// call at a time, so a plan shared by concurrent Estimate (ruled and
// un-ruled), TallyShard and sweep calls must give each call exactly what
// a freshly compiled plan gives it. It covers every planScenarios entry
// (all lowered to lanes), the hub-source star Compile holds on bitset,
// and a default-message scenario, which has no lane lowering.
func TestSharedPlanIdentity(t *testing.T) {
	scenarios := planScenarios()
	scenarios["held hub-source star"] = Config{
		Graph: Star(4), Source: 0, Message: []byte("1"),
		Model: Radio, Fault: Malicious, P: 0.1, WindowC: 4, Adversary: WorstCase,
	}
	scenarios["default message"] = Config{
		Graph: Line(6), Source: 0, Message: []byte("0"),
		Model: MessagePassing, Fault: Malicious, P: 0.3,
		Algorithm: SimpleMalicious, Adversary: CrashAdv,
	}
	type call struct {
		name string
		run  func(*Plan) (any, error)
	}
	estimate := func(trials int, opts ...EstimateOption) func(*Plan) (any, error) {
		return func(p *Plan) (any, error) {
			return p.Estimate(trials, append(opts, WithWorkers(2))...)
		}
	}
	calls := []call{
		{"estimate", estimate(150, WithBaseSeed(3))},
		{"estimate/target", estimate(600, WithBaseSeed(4), WithTarget(0.8))},
		{"estimate/half-width", estimate(600, WithBaseSeed(5), WithHalfWidth(0.06))},
		{"sweep", func(p *Plan) (any, error) {
			sp := sweepOnPlan(p, []uint64{11, 5000, 90000}, CellBudget{Trials: 256, HalfWidth: 0.08})
			res, err := sp.Collect(context.Background(), WithSweepWorkers(2))
			ests := make([]Estimate, len(res))
			for i, r := range res {
				ests[i] = r.Estimate
			}
			return ests, err
		}},
	}
	for _, trials := range []int{1, 2, 31, 33, 64, 65, 96} {
		for _, batch := range []int{1, 32} {
			seed := uint64(100 + trials)
			calls = append(calls, call{fmt.Sprintf("shard/%d/%d", trials, batch), func(p *Plan) (any, error) {
				return p.TallyShard(seed, trials, batch, 2), nil
			}})
		}
	}
	for name, cfg := range scenarios {
		t.Run(name, func(t *testing.T) {
			want := make([]any, len(calls))
			for i, c := range calls {
				fresh, err := Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want[i], err = c.run(fresh); err != nil {
					t.Fatalf("%s on a fresh plan: %v", c.name, err)
				}
			}
			shared, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]any, len(calls))
			errs := make([]error, len(calls))
			var wg sync.WaitGroup
			for i, c := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = c.run(shared)
				}()
			}
			wg.Wait()
			for i, c := range calls {
				if errs[i] != nil {
					t.Errorf("%s on the shared plan: %v", c.name, errs[i])
				} else if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: shared plan gave %+v, a fresh plan %+v", c.name, got[i], want[i])
				}
			}
		})
	}
}

// sweepOnPlan is a sweep of one cell per seed, every cell on plan.
func sweepOnPlan(plan *Plan, seeds []uint64, budget CellBudget) *SweepPlan {
	sp := &SweepPlan{budget: budget.withDefaults(), plans: 1}
	for i, seed := range seeds {
		cfg := plan.cfg
		cfg.Seed = seed
		sp.cells = append(sp.cells, SweepCell{
			Index: i, Config: cfg, Key: cfg.Fingerprint(), PlanKey: plan.Key(), plan: plan,
		})
	}
	return sp
}
