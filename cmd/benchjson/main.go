// Command benchjson runs the engine benchmarks through `go test -bench`
// and records the results as a machine-readable JSON file (by default
// BENCH_engine.json), so the performance trajectory of the simulator is
// captured per commit instead of scrolling away in CI logs. CI runs it
// after the test job and uploads the file as a build artifact.
//
// Usage:
//
//	go run ./cmd/benchjson [-bench REGEXP] [-pkg PATTERN] [-benchtime D]
//	                       [-count N] [-out FILE]
//
// The default benchmark selection covers the engine-level workloads: the
// compile-once estimator on the Composed and RadioRepeat scenarios (with
// their bitset-core and lane-core twins) and the raw round-engine runs.
// A second invocation with -bench '^BenchmarkSweepFeasibilityGrid'
// -out BENCH_sweep.json records the sweep scheduler pair (per-cell loop vs shared pool); that
// delta scales with core count, so read it next to the file's maxprocs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement. When -count > 1 the
// minimum ns/op across samples is kept (the least-noise estimate on a
// shared machine); B/op and allocs/op are effectively deterministic.
type Result struct {
	Workload    string  `json:"workload"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// File is the BENCH_engine.json schema. MaxProcs and CPU identify the
// builder: ns/op from a 1-core CI runner and a 16-core workstation are
// not comparable, and the lane-core speedups in particular divide across
// however many workers the estimator was allowed.
type File struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	MaxProcs  int      `json:"maxprocs"`
	CPU       string   `json:"cpu,omitempty"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// cpuModel reads the processor model from /proc/cpuinfo. Best effort:
// on platforms without it (or with an unexpected layout) the header just
// omits the field rather than failing the run.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	bench := flag.String("bench", `^Benchmark(EstimatePlan(Composed|RadioRepeat)(Lanes|LanesTraced|BitsetCore)?|EstimateLanes(Noise|Equivocator|Timing)(BitsetCore)?|Engine.*)$`,
		"benchmark selection regexp, passed to go test -bench")
	pkg := flag.String("pkg", ".", "package pattern to benchmark")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value (min ns/op is kept)")
	out := flag.String("out", "BENCH_engine.json", "output file")
	flag.Parse()

	args := []string{"test", *pkg, "-run", "^$",
		"-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n%s", strings.Join(args, " "), err, outBytes)
		os.Exit(1)
	}

	byName := map[string]*Result{}
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		var bop, aop int64
		if m[3] != "" {
			bop, _ = strconv.ParseInt(m[3], 10, 64)
		}
		if m[4] != "" {
			aop, _ = strconv.ParseInt(m[4], 10, 64)
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		r, ok := byName[name]
		if !ok {
			byName[name] = &Result{Workload: name, NsPerOp: ns, BPerOp: bop, AllocsPerOp: aop, Samples: 1}
			continue
		}
		r.Samples++
		if ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if bop < r.BPerOp {
			r.BPerOp = bop
		}
		if aop < r.AllocsPerOp {
			r.AllocsPerOp = aop
		}
	}
	if len(byName) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines matched %q in go test output:\n%s", *bench, outBytes)
		os.Exit(1)
	}

	file := File{
		Schema:    "faultcast-bench/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		CPU:       cpuModel(),
		Bench:     *bench,
		Benchtime: *benchtime,
	}
	for _, r := range byName {
		file.Results = append(file.Results, *r)
	}
	sort.Slice(file.Results, func(i, j int) bool { return file.Results[i].Workload < file.Results[j].Workload })

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(file.Results), *out)
}
