package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"faultcast"
	"faultcast/internal/exec"
	"faultcast/internal/telemetry"
)

// perLayer is every metric a traced run prints, with its unit. Layers that
// do no work on a workload print 0. The wall-clock and raw CPU figures
// lead the list: they are end-to-end figures, taken from the run's
// untraced part, but on a shared host other tenants move them too much
// run to run to carry a regression bound, so they ride ungated here. Sums
// and counts are per iteration of the workload's timed loop (a cold+hot
// sweep pass pair, a replay+top-up step pair) or per measured window on
// serve-mixed; see README.md.
var perLayer = []struct{ name, unit string }{
	{"wall_s", "s"}, {"trials_per_s", "trials/s"}, {"goodput_rps", "1/s"},
	{"hot_p50_ms", "ms"}, {"hot_p99_ms", "ms"}, {"cold_p50_ms", "ms"}, {"cold_p99_ms", "ms"},
	{"hot_cpu_ms", "ms"}, {"cold_cpu_ms", "ms"}, {"trials_per_cpu_s", "trials/s"}, {"cpu_ms_per_answer", "ms"},
	{"host.kernel_ms", "ms"}, {"setup_wall_s", "s"},
	{"faultcast.compile_s", "s"}, {"faultcast.plans", "count"},
	{"sim.lanes.trials", "count"}, {"sim.lanes.busy_s", "s"}, {"sim.lanes.trials_per_busy_s", "trials/s"},
	{"sim.bitset.trials", "count"}, {"sim.bitset.busy_s", "s"}, {"sim.bitset.trials_per_busy_s", "trials/s"},
	{"exec.batches", "count"}, {"exec.engine_share", "ratio"}, {"exec.overhead_s", "s"},
	{"stat.trials_to_decide", "count"}, {"stat.cells_at_budget", "count"},
	{"service.cache_hit_frac", "ratio"}, {"service.plan_cache_hit_frac", "ratio"},
	{"service.executions", "count"}, {"service.refines", "count"}, {"service.coalesced", "count"},
	{"service.rejected", "count"}, {"service.admission_wait_s", "s"}, {"service.admission_wait_p99_ms", "ms"},
	{"service.execute_s", "s"}, {"service.server_p50_ms", "ms"}, {"service.server_p99_ms", "ms"},
	{"service.transport_p50_ms", "ms"},
	{"store.open_s", "s"}, {"store.loads", "count"}, {"store.load_s", "s"}, {"store.load_p99_ms", "ms"},
	{"store.appends", "count"}, {"store.append_s", "s"}, {"store.append_p99_ms", "ms"},
	{"store.resumed_trials", "count"}, {"store.bytes_written", "bytes"},
	{"cluster.shards", "count"}, {"cluster.shard_rtt_p50_ms", "ms"}, {"cluster.shard_rtt_p99_ms", "ms"},
	{"cluster.worker_s", "s"}, {"cluster.wire_s", "s"}, {"cluster.speculative_frac", "ratio"},
	{"cluster.retries", "count"}, {"cluster.failovers", "count"},
	{"load.lag_p99_ms", "ms"}, {"load.client_queue_p99_ms", "ms"}, {"load.over_limit", "count"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
	{"self.faultcast_s", "s"}, {"self.sim_s", "s"}, {"self.exec_s", "s"}, {"self.service_s", "s"},
	{"self.store_s", "s"}, {"self.cluster_s", "s"},
	{"telemetry.overhead_frac", "ratio"},
}

// ledger accumulates per-layer sums and samples during a traced run.
type ledger struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
}

func newLedger() *ledger {
	return &ledger{sums: map[string]float64{}, samples: map[string][]float64{}}
}

func (l *ledger) add(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

func (l *ledger) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// publish sets the per-layer metrics on r: sums divided by per (the
// iteration count; ratios are added once per iteration, so they become
// means), percentiles over all samples, and 0 for a metric nothing set.
func (l *ledger) publish(r *run, per float64) {
	if per <= 0 {
		per = 1
	}
	for name, v := range l.sums {
		r.set(name, unitOf(name), v/per)
	}
	for name, xs := range l.samples {
		// Samples are in milliseconds, named <base>: p50 and p99 are derived.
		r.set(name+"_p50_ms", "ms", quantile(xs, 0.50))
		r.set(name+"_p99_ms", "ms", quantile(xs, 0.99))
	}
	// The engine's wall share is taken out of the exec span that ran it;
	// where the engine overlapped store appends under the same span the
	// difference can dip below zero, so exec self time is floored there.
	if l.sums["self.exec_s"] < 0 {
		r.set("self.exec_s", "s", 0)
	}
	for _, core := range []string{"lanes", "bitset"} {
		if busy := l.sums["sim."+core+".busy_s"]; busy > 0 {
			r.set("sim."+core+".trials_per_busy_s", "trials/s", l.sums["sim."+core+".trials"]/busy)
		}
	}
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// engineProbe attributes per-batch engine time to the core that ran it,
// via the sweep's group→cell map: BatchStat.Cell is the index of the
// distinct-Key group, numbered in first-occurrence order of cell keys.
type engineProbe struct {
	l      *ledger
	cores  []string // group index → Plan.EstimationCore()
	mu     sync.Mutex
	engine time.Duration
}

func newEngineProbe(l *ledger, sp *faultcast.SweepPlan) *engineProbe {
	seen := map[string]bool{}
	var cores []string
	for _, c := range sp.Cells() {
		if !seen[c.Key] {
			seen[c.Key] = true
			cores = append(cores, c.Plan().EstimationCore())
		}
	}
	return &engineProbe{l: l, cores: cores}
}

func (p *engineProbe) observe(bs exec.BatchStat) {
	core := p.cores[bs.Cell]
	p.l.add("sim."+core+".trials", float64(bs.Trials))
	p.l.add("sim."+core+".busy_s", bs.Engine.Seconds())
	p.l.add("exec.batches", 1)
	p.mu.Lock()
	p.engine += bs.Engine
	p.mu.Unlock()
}

// runtimeDelta measures allocation and GC work across a region.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntime() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *runtimeDelta) finish(l *ledger) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	l.add("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
	l.add("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC))
	l.add("runtime.gc_pause_s", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e9)
}

// layerOf maps a span to the layer whose code it times. parent is the
// enclosing span's name ("" at the root).
func layerOf(name, parent string) string {
	switch name {
	case "compile":
		return "faultcast"
	case "run":
		return "exec"
	case "store.open", "store.append", "store-replay":
		return "store"
	case "shard":
		if parent == "shard" {
			return "service" // a worker's own shard trace, grafted under the dispatch
		}
		return "cluster"
	case "execute":
		if parent == "shard" {
			return "sim" // worker-side TallyShard: engine only
		}
		return "exec"
	case "estimate", "sweep", "admission", "plan":
		return "service"
	}
	return ""
}

// selfTimes adds each span's self time (its duration minus the union of
// its direct children's intervals) to its layer's self.<layer>_s sum.
func selfTimes(l *ledger, sp *telemetry.Span, parent string) {
	if sp == nil {
		return
	}
	type iv struct{ a, b int64 }
	var kids []iv
	for _, c := range sp.Children {
		kids = append(kids, iv{c.StartNs, c.StartNs + c.DurNs})
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	// Offsets are from the trace start at every depth (grafted worker
	// subtrees are rebased on graft), so intervals compare directly.
	lo, hi := sp.StartNs, sp.StartNs+sp.DurNs
	var covered int64
	end := lo
	for _, k := range kids {
		a, b := max(k.a, end, lo), min(k.b, hi)
		if b > a {
			covered += b - a
			end = b
		}
	}
	if layer := layerOf(sp.Name, parent); layer != "" {
		l.add("self."+layer+"_s", float64(sp.DurNs-covered)/1e9)
	}
	for _, c := range sp.Children {
		selfTimes(l, c, sp.Name)
	}
}

// walk calls fn on every span of a tree with its parent's name.
func walk(sp *telemetry.Span, parent string, fn func(sp *telemetry.Span, parent string)) {
	if sp == nil {
		return
	}
	fn(sp, parent)
	for _, c := range sp.Children {
		walk(c, sp.Name, fn)
	}
}

func attr(sp *telemetry.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func attrInt(sp *telemetry.Span, key string) float64 {
	v, _ := strconv.ParseFloat(attr(sp, key), 64)
	return v
}

func attrDur(sp *telemetry.Span, key string) time.Duration {
	d, _ := time.ParseDuration(attr(sp, key))
	return d
}
