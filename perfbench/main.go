// Command perfbench is the repository benchmark: it runs one named
// workload from a seed in a single process, drives the system only
// through its public functions, checks that the outputs are correct,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run times the calls into each layer and reports the
// per-layer metrics, and writes its spans as a Chrome trace under -out.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload train_local --seed 1 --seconds 30 --trace 0
//
// The workloads, their rates and the layer-to-end-to-end interaction map
// live in workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"avgpipe/internal/obs"
)

//go:embed workloads.json
var workloadsJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command's inputs; smoke shrinks every phase to a
// token size so the benchmark's own tests run each workload quickly.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	smoke    bool
	// corrupt deliberately breaks one output ("loss", "response" or
	// "reference") to prove the correctness checks fail the run.
	corrupt string
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the Chrome trace of a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny run of the workload (for the benchmark's own tests)")
	flag.StringVar(&o.corrupt, "corrupt", "", "corrupt one output on purpose: loss, response or reference")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	cfg, err := loadConfig(workloadsJSON)
	if err != nil {
		fatalf("%v", err)
	}
	w, ok := cfg.Workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (have %s)", o.workload, strings.Join(cfg.names(), ", "))
	}
	res, tr, err := run(cfg, w, o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if tr != nil {
		if err := writeTrace(tr, o); err != nil {
			fatalf("%v", err)
		}
	}
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"go": runtime.Version(), "cpu": cpuModel(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(env); err != nil {
		fatalf("encode environment: %v", err)
	}
	if err := enc.Encode(res); err != nil {
		fatalf("encode result: %v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and returns its result, plus the
// tracer of a traced run.
func run(cfg *config, w *workloadCfg, o options) (*result, *obs.Tracer, error) {
	heap := startHeapSampler()
	defer heap.stop()
	if o.trace {
		return runTraced(cfg, w, o, heap)
	}
	res, err := runEndToEnd(cfg, w, o, heap)
	return res, nil, err
}

func writeTrace(tr *obs.Tracer, o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d events)\n", path, tr.Len())
	return nil
}

// cpuModel names the processor the result was measured on.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// phaseDur scales a share of the run's measurement budget.
func phaseDur(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}
