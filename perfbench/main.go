// Command perfbench is the repository's benchmark. It runs one workload
// — a user mode of the simulator, as its real command line — and prints
// the end-to-end metrics BENCHMARK.json declares, or, with -trace 1, an
// in-process traced pass that yields the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds the
// commands first:
//
//	bash perfbench/run.sh --workload passive-stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // repository root: BENCHMARK.json lives here
	bin      string // directory holding the built anycastsim and repro
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed, passed to the command as -seed")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to keep re-running the command")
	flag.IntVar(&trace, "trace", 0, "1: run the traced per-layer pass instead")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the built commands")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	// An interrupted run kills the command it is waiting on (and that
	// command's workers) before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(ctx, o)
	if err != nil {
		return err
	}

	var res *result
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
		res, err = b.traced(w)
	} else {
		res, err = b.measure(w)
	}
	if err != nil {
		return err
	}
	if err := res.conform(declared); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench holds what every run needs: its options, the built commands,
// scratch space, and the context an interrupt cancels.
type bench struct {
	opts options
	bins map[string]string
	work string // output directories, references and span dumps
	ctx  context.Context
}

func newBench(ctx context.Context, o options) (*bench, error) {
	b := &bench{opts: o, bins: map[string]string{}, ctx: ctx}
	for _, name := range []string{"anycastsim", "repro"} {
		p, err := filepath.Abs(filepath.Join(o.bin, name))
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("built command missing (run through run.sh): %w", err)
		}
		b.bins[name] = p
	}
	work, err := filepath.Abs(filepath.Join(o.root, ".bench_build", "perfbench"))
	if err != nil {
		return nil, err
	}
	b.work = work
	return b, os.MkdirAll(work, 0o755)
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// conform checks the result carries exactly the declared metrics, each
// with its declared unit and a finite value.
func (r *result) conform(declared []specMetric) error {
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	var problems []string
	for name, mv := range r.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			problems = append(problems, name+" is not declared")
		case unit != mv.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %s, declared %s", name, mv.Unit, unit))
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			problems = append(problems, fmt.Sprintf("%s = %v", name, mv.Value))
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			problems = append(problems, name+" was not measured")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result does not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if err := validMetric(m.Name, m.Unit); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &s, nil
}

// releaseMemory hands the heap of an in-process build back to the OS, so
// it neither crowds the next command nor inflates this process's footprint
// while a command runs.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
