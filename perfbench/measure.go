package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"anycastcdn/internal/sim"
)

const (
	// Set-up is timed at least minSetups times, and further while the
	// set-up budget lasts, so setup_s is a median of several builds.
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 2 * time.Second
	// A run must end within three minutes even when a command stalls:
	// every execution is killed once the run has used execBudget,
	// leaving room for the reference pass.
	execBudget = 120 * time.Second
	execFloor  = 20 * time.Second
)

// measure is one untraced run: the workload's command re-run in a
// closed loop (one execution at a time) for the run's seconds, then the
// world build timed for setup_s, and every execution's outputs checked
// against the in-process reference and against each other.
//
// The commands run first, while this process is still small: a command
// shares this process's memory until it execs, so its rusage peak RSS
// counts this process's peak so far, and an in-process build before it
// would leak into peak_rss_mib.
func (b *bench) measure(w *workload) (*result, error) {
	runStart := time.Now()
	cfg, err := w.config(b.opts.seed)
	if err != nil {
		return nil, err
	}

	var execs []execution
	loopStart := time.Now()
	for len(execs) == 0 || time.Since(loopStart) < time.Duration(b.opts.seconds)*time.Second {
		ex, err := b.execute(w, max(execFloor, execBudget-time.Since(runStart)))
		if err != nil {
			return nil, err
		}
		if err := b.ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted: %w", err)
		}
		fmt.Printf("  execution %d: wall %.3f s  cpu %.3f s  peak rss %.1f MiB\n",
			len(execs), ex.Wall.Seconds(), ex.CPU.Seconds(), float64(ex.PeakRSS)/(1<<20))
		execs = append(execs, ex)
	}

	setups, err := setupTimes(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	releaseMemory()
	ref, err := b.reference(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	failed := checkExecutions(execs, ref)
	if err := ref.save(); err != nil {
		return nil, err
	}
	for i, ex := range execs {
		if ex.Err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s execution %d failed: %v\n", w.name, i, ex.Err)
		}
	}

	// Medians come from the executions that passed; if none did, the
	// failed ones still show what the run cost.
	use := execs[:0:0]
	for _, ex := range execs {
		if ex.Err == nil {
			use = append(use, ex)
		}
	}
	if len(use) == 0 {
		use = execs
	}
	clientDays := float64(cfg.Prefixes * cfg.Days)
	var rate, cpu, rss []float64
	for _, ex := range use {
		rate = append(rate, clientDays/ex.Wall.Seconds())
		cpu = append(cpu, ex.CPU.Seconds())
		rss = append(rss, float64(ex.PeakRSS)/(1<<20))
	}
	res := &result{Correct: failed == 0, Attempted: len(execs), Failed: failed}
	fmt.Printf("workload %s  seed %d  %d prefixes x %d days  closed loop, 1 command at a time\n",
		w.name, b.opts.seed, cfg.Prefixes, cfg.Days)
	for _, m := range []struct {
		name, unit string
		xs         []float64
	}{
		{"client_days_per_s", "1/s", rate},
		{"cpu_s", "s", cpu},
		{"peak_rss_mib", "MiB", rss},
		{"setup_s", "s", setups},
	} {
		s := summarize(m.xs)
		fmt.Printf("  %-18s %-5s %v\n", m.name, m.unit, s)
		res.set(m.name, m.unit, s.Median)
	}
	fmt.Printf("  %-18s %-5s %g (%d of %d executions failed)\n", "error_rate", "ratio",
		float64(failed)/float64(len(execs)), failed, len(execs))
	return res, nil
}

// setupTimes times the workload's world build, collecting the heap
// before each so every build starts from the same state.
func setupTimes(w *workload, cfg sim.Config) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minSetups || (len(out) < maxSetups && time.Since(start) < setupBudget) {
		runtime.GC()
		t := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// execute runs the workload's command once in a fresh output directory
// and digests what it produced. Only a failure to manage the scratch
// directory is returned as an error; the command's own failures land in
// the execution.
func (b *bench) execute(w *workload, timeout time.Duration) (execution, error) {
	dir, err := os.MkdirTemp(b.work, "out-")
	if err != nil {
		return execution{}, err
	}
	argv := append([]string{b.bins[w.bin]}, w.args(b.opts.seed, dir)...)
	ex, stdout := runCommand(b.ctx, argv, b.opts.root, timeout)
	if ex.Err == nil {
		ex.Digests, ex.Bytes, ex.Err = w.outputs(dir, stdout)
	}
	return ex, os.RemoveAll(dir)
}

// checkExecutions fails every execution whose outputs differ from the
// reference or from the set's outputs — those of the first passing
// execution, or of an earlier run with the same seed and build — and
// returns how many failed in all.
func checkExecutions(execs []execution, ref *reference) int {
	failed := 0
	for i := range execs {
		ex := &execs[i]
		if ex.Err == nil {
			ex.Err = compareDigests("output check against the in-process reference", ref.Reference, ex.Digests)
		}
		if ex.Err == nil && ref.Outputs == nil {
			ref.Outputs = ex.Digests
		}
		if ex.Err == nil {
			ex.Err = sameDigests(ref.Outputs, ex.Digests)
		}
		if ex.Err != nil {
			failed++
		}
	}
	return failed
}

// sameDigests requires two executions' outputs to agree file for file.
func sameDigests(want, got map[string]string) error {
	if err := compareDigests("outputs differ from the set's", want, got); err != nil {
		return err
	}
	return compareDigests("outputs differ from the set's", got, want)
}

// reference is the expected output of one (workload, seed, build). It is
// kept on disk beside the build, so later runs with the same seed skip
// recomputing it and also check their outputs against earlier runs'.
type reference struct {
	Reference map[string]string `json:"reference"`
	Outputs   map[string]string `json:"outputs,omitempty"`
	path      string
}

func (b *bench) reference(w *workload, cfg sim.Config) (*reference, error) {
	key, err := b.buildKey(w)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.work, "refs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ref := &reference{path: filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", w.name, b.opts.seed, key))}
	data, err := os.ReadFile(ref.path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, ref); err != nil {
			return nil, fmt.Errorf("%s: %w", ref.path, err)
		}
		return ref, nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	ref.Reference, err = w.reference(cfg)
	releaseMemory()
	return ref, err
}

func (r *reference) save() error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(r.path, data, 0o644)
}

// buildKey identifies the code a reference was computed with: a digest
// of this binary (which links the simulator) and of the workload's
// command.
func (b *bench) buildKey(w *workload) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{self, b.bins[w.bin]} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		_ = f.Close() // read only
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
