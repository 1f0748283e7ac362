package faultcast

import "fmt"

// compileOn compiles cfg with its estimation trials forced onto core,
// "lanes" or "bitset"; "auto" is Compile's own choice. Compile picks the
// core from the scenario alone, so only tests force one: the equivalence
// suites run every scenario on both cores, and the benchmark twins time
// them side by side.
func compileOn(cfg Config, core string) (*Plan, error) {
	if core == "auto" {
		return Compile(cfg)
	}
	simCfg, lanes, err := build(cfg)
	if err != nil {
		return nil, err
	}
	switch core {
	case "bitset":
		lanes = nil
	case "lanes":
		if lanes == nil {
			return nil, fmt.Errorf("faultcast: no lane lowering for message %q", cfg.Message)
		}
	default:
		return nil, fmt.Errorf("faultcast: unknown core %q", core)
	}
	return &Plan{cfg: cfg, sim: simCfg, lanes: lanes}, nil
}

// compileSweepOn is CompileSweep with every cell's estimation forced onto
// core, one recompiled plan per PlanKey.
func compileSweepOn(spec SweepSpec, core string) (*SweepPlan, error) {
	sp, err := CompileSweep(spec)
	if err != nil || core == "auto" {
		return sp, err
	}
	plans := map[string]*Plan{}
	for i := range sp.cells {
		c := &sp.cells[i]
		if plans[c.PlanKey] == nil {
			if plans[c.PlanKey], err = compileOn(c.plan.cfg, core); err != nil {
				return nil, fmt.Errorf("sweep cell %d: %w", i, err)
			}
		}
		c.plan = plans[c.PlanKey]
	}
	return sp, nil
}
