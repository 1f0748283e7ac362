// Command perfbench is faultcast's end-to-end and per-layer benchmark. It
// runs one named workload for a fixed window, checks every answer against
// an independent reference, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (untraced); with
// -trace 1 they are the per-layer set, taken from a traced run. See
// README.md in this directory for the workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"faultcast/internal/telemetry"
)

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one invocation's parameters and accumulates its result.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	workDir  string // per-run directory inside the checkout (stores, span dumps)
	speed    speed  // calibration kernel timings, taken between the workload's calls

	attempted, failed int
	problems          []string
	metrics           map[string]Metric
	spans             []telemetry.TraceJSON // held for the dump written at exit
}

// fail records a correctness violation; any one makes the run incorrect.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// endToEnd names the metrics an untraced run reports; every workload sets
// them all. Apart from set-up time, memory and the success share they are
// CPU costs scaled to the reference host's speed (see speed.go): on a
// shared host the raw CPU and wall-clock figures move with the other
// tenants, so they ride ungated in the per-layer set. The table printed
// before the result line shows everything a run measured.
var endToEnd = []string{"setup_s", "hot_ref_ms", "cold_ref_ms", "trials_per_ref_s", "max_rss_mb", "ok_frac"}

var workloads = map[string]func(*run) error{
	"curve-sweep":   curveSweep,
	"serve-mixed":   serveMixed,
	"store-topup":   storeTopup,
	"cluster-sweep": clusterSweep,
}

func main() {
	root := flag.String("root", ".", "checkout root; build output and run files go under <root>/.bench_build")
	workload := flag.String("workload", "", "workload name: curve-sweep, serve-mixed, store-topup, cluster-sweep")
	seed := flag.Uint64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Int("seconds", 20, "measured window, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	work := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workDir: work, metrics: map[string]Metric{},
	}
	hdr := header(r)
	hj, _ := json.Marshal(hdr)
	fmt.Printf("header %s\n", hj)

	err := fn(r)
	if r.trace {
		dumpSpans(r, hdr)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	printTable(r)
	res := Result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Metric{}}
	names := endToEnd
	if r.trace {
		names = nil
		for _, m := range perLayer {
			names = append(names, m.name)
		}
	}
	for _, n := range names {
		res.Metrics[n] = r.metrics[n]
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// header records what a result depends on beyond the code, so numbers from
// different hosts are never compared silently.
func header(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.window.Seconds(),
		"trace":      r.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"store_fs":   fsType(r.workDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (fsync cost is real disk
// behaviour, so store numbers depend on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
		0x01021997: "9p", 0x6a656a63: "virtiofs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuSeconds is the user plus system CPU time the process has used so
// far, on all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printTable(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d\n", r.workload, r.seed, r.trace, r.attempted, r.failed)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// dumpSpans writes every span tree the traced run held in memory.
func dumpSpans(r *run, hdr map[string]any) {
	dir := filepath.Join(filepath.Dir(r.workDir), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
		return
	}
	b, err := json.Marshal(map[string]any{"header": hdr, "traces": r.spans})
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.workload, r.seed)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setups runs a workload's set-up repeatedly — at least 11 times and for
// at least a quarter second, at most 201 times — and reports its median
// process CPU time, scaled to the reference host by the kernel timed
// before each set-up, as setup_s, and its median wall time as
// setup_wall_s. undo, untimed, tears down the previous build before the
// next; the last build is the one the timed phase uses.
func setups(r *run, build func() error, undo func()) error {
	var cpus, walls []float64
	t0 := time.Now()
	for len(walls) < 11 || (time.Since(t0) < time.Second/4 && len(walls) < 201) {
		if len(walls) > 0 {
			undo()
		}
		kernelMs := r.speed.at()
		c0, w0 := cpuSeconds(), time.Now()
		if err := build(); err != nil {
			return err
		}
		walls = append(walls, time.Since(w0).Seconds())
		cpus = append(cpus, (cpuSeconds()-c0)*refKernelMs/kernelMs)
	}
	r.set("setup_s", "s", median(cpus))
	r.set("setup_wall_s", "s", median(walls))
	return nil
}
