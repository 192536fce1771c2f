// Command benchjson summarizes a `go test -json` stream into a compact
// machine-readable benchmark report. It reads test2json events on stdin,
// extracts the benchmark result lines ("BenchmarkX-8  42  123456 ns/op
// ..."), and writes them as sorted JSON, so CI can archive one stable
// artifact (BENCH_repro.json) per run instead of scraping logs:
//
//	go test -bench=. -benchtime=1x -run '^$' -json ./... | benchjson -o BENCH_repro.json
//
// With -compare, benchjson additionally gates the run against a
// checked-in baseline (BENCH_baseline.json) and exits non-zero naming the
// offending benchmark with its baseline and current ns/op:
//
//	... | benchjson -o BENCH_repro.json -compare BENCH_baseline.json -tolerance 0.15 \
//	        -maxallocs BenchmarkSubstream=0,BenchmarkSampleRTT=0 \
//	        -maxbytes BenchmarkFigure9=120000000
//
// Three checks run, all against the current results:
//   - every benchmark named in the baseline must not exceed its baseline
//     ns/op by more than -tolerance (fractional; 0.15 = +15%);
//   - each -maxallocs entry's allocs/op metric must not exceed the given
//     count (requires b.ReportAllocs in the benchmark);
//   - each -maxbytes entry's B/op metric must not exceed the given count.
//
// With -band, benchjson also holds the headline metrics benchmarks report
// through b.ReportMetric inside closed intervals, so a change in the
// reproduction's results fails the run even when its speed does not:
//
//	... | benchjson -band BenchmarkFigure9.pct-weighted-improved=13.5:14.5
//
// A band keyed Benchmark.metric applies to that benchmark; one keyed by a
// bare metric name applies to every benchmark that reports the metric.
// Either way at least one benchmark must report it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's output record benchjson needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// result is one benchmark measurement.
type result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_repro.json", "output file")
		compare   = flag.String("compare", "", "baseline JSON file to gate against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression versus baseline")
		maxAlloc  = flag.String("maxallocs", "", "comma-separated Benchmark=count allocs/op ceilings")
		maxBytes  = flag.String("maxbytes", "", "comma-separated Benchmark=count B/op ceilings")
		bands     = flag.String("band", "", "comma-separated [Benchmark.]metric=lo:hi bands for reported metrics")
	)
	flag.Parse()
	results, err := run(os.Stdin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	failures, err := checkBands(results, *bands)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var baseline []result
	if *compare != "" {
		if baseline, err = loadBaseline(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		gated, err := gate(results, baseline, *tolerance, *maxAlloc, *maxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		failures = append(failures, gated...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", f)
		}
		os.Exit(1)
	}
	if *compare != "" {
		fmt.Printf("benchjson: gate passed against %s (%d baseline benchmarks, tolerance %.0f%%)\n",
			*compare, len(baseline), *tolerance*100)
	}
}

func run(in io.Reader, outPath string) ([]result, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var results []result
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // non-JSON lines (plain `go test` output) are skipped
		}
		if ev.Action != "output" {
			continue
		}
		if r, ok := parseBenchLine(ev.Package, ev.Output); ok {
			results = append(results, r)
			continue
		}
		// The testing package prints the benchmark name, runs the
		// benchmark, then prints the measurements, so test2json usually
		// delivers the name as its own partial-line event and the
		// "       1\t123 ns/op\t..." line separately — with the benchmark
		// name in the event's Test field. Rejoin them.
		if strings.HasPrefix(ev.Test, "Benchmark") && strings.Contains(ev.Output, "ns/op") {
			if r, ok := parseBenchLine(ev.Package, ev.Test+"\t"+ev.Output); ok {
				results = append(results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Package != results[j].Package {
			return results[i].Package < results[j].Package
		}
		return results[i].Name < results[j].Name
	})
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("benchjson: wrote %d benchmark results to %s\n", len(results), outPath)
	return results, nil
}

// parseBenchLine parses one benchmark result line of `go test -bench`
// output: "BenchmarkName-8  20  123456 ns/op  512 B/op  3 allocs/op".
func parseBenchLine(pkg, line string) (result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || !strings.Contains(line, "ns/op") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Package: pkg, Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}

func loadBaseline(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return rs, nil
}

// benchName strips the -GOMAXPROCS suffix go appends to benchmark names
// ("BenchmarkX-8" → "BenchmarkX"), so baselines compare across machines.
func benchName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseRequirements parses "BenchmarkA=3,BenchmarkB=0" lists.
func parseRequirements(spec string) (map[string]float64, error) {
	out := map[string]float64{}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed requirement %q (want Benchmark=value)", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed requirement value in %q: %w", part, err)
		}
		out[name] = v
	}
	return out, nil
}

// gate checks current results against the baseline and the explicit
// allocation/byte requirements, returning one message per violation.
// Baseline entries are matched by (package, name): a same-named
// benchmark in a different package must not satisfy — and so silently
// mask the deletion of — a gated benchmark. The requirement specs
// (-maxallocs, -maxbytes) stay keyed by bare name for CLI ergonomics; a
// bare name that matches several packages applies the requirement to
// every match.
func gate(current, baseline []result, tolerance float64, maxAllocSpec, maxBytesSpec string) ([]string, error) {
	maxAlloc, err := parseRequirements(maxAllocSpec)
	if err != nil {
		return nil, err
	}
	maxBytes, err := parseRequirements(maxBytesSpec)
	if err != nil {
		return nil, err
	}
	type benchKey struct{ pkg, name string }
	cur := make(map[benchKey]result, len(current))
	byName := make(map[string][]result, len(current))
	for _, r := range current {
		name := benchName(r.Name)
		cur[benchKey{r.Package, name}] = r
		byName[name] = append(byName[name], r)
	}
	var failures []string
	for _, base := range baseline {
		name := benchName(base.Name)
		r, ok := cur[benchKey{base.Package, name}]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s (%s): present in baseline but missing from this run", name, base.Package))
			continue
		}
		if base.NsPerOp > 0 && r.NsPerOp > base.NsPerOp*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s regressed: baseline %.0f ns/op, current %.0f ns/op (%+.0f%%, tolerance %.0f%%)",
				name, base.NsPerOp, r.NsPerOp, (r.NsPerOp/base.NsPerOp-1)*100, tolerance*100))
		}
	}
	checkMetric := func(spec map[string]float64, flagName, unit, verb string) {
		for name, limit := range spec {
			rs := byName[name]
			if len(rs) == 0 {
				failures = append(failures, fmt.Sprintf("%s: %s given but benchmark did not run", name, flagName))
				continue
			}
			for _, r := range rs {
				v, ok := r.Metrics[unit]
				if !ok {
					failures = append(failures, fmt.Sprintf("%s: no %s metric (missing b.ReportAllocs?)", name, unit))
					continue
				}
				if v > limit {
					failures = append(failures, fmt.Sprintf(
						"%s %s %.0f %s, limit %.0f (%.0f ns/op)", name, verb, v, unit, limit, r.NsPerOp))
				}
			}
		}
	}
	checkMetric(maxAlloc, "-maxallocs", "allocs/op", "allocates")
	checkMetric(maxBytes, "-maxbytes", "B/op", "allocates")
	sort.Strings(failures)
	return failures, nil
}

// band is one -band entry: bench is empty for a bare metric name.
type band struct {
	bench, metric string
	lo, hi        float64
}

// parseBands parses "[Benchmark.]metric=lo:hi" lists.
func parseBands(spec string) ([]band, error) {
	if spec == "" {
		return nil, nil
	}
	var out []band
	for _, part := range strings.Split(spec, ",") {
		key, rng, ok := strings.Cut(strings.TrimSpace(part), "=")
		loStr, hiStr, ok2 := strings.Cut(rng, ":")
		if !ok || !ok2 || key == "" {
			return nil, fmt.Errorf("malformed band %q (want [Benchmark.]metric=lo:hi)", part)
		}
		lo, err := strconv.ParseFloat(loStr, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed band low bound in %q: %w", part, err)
		}
		hi, err := strconv.ParseFloat(hiStr, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed band high bound in %q: %w", part, err)
		}
		if lo > hi {
			return nil, fmt.Errorf("band %q is empty: %g > %g", part, lo, hi)
		}
		b := band{metric: key, lo: lo, hi: hi}
		if bench, metric, qualified := strings.Cut(key, "."); qualified {
			b.bench, b.metric = bench, metric
		}
		out = append(out, b)
	}
	return out, nil
}

// checkBands returns one message per reported metric outside its band,
// and per band that no benchmark reported.
func checkBands(current []result, spec string) ([]string, error) {
	bands, err := parseBands(spec)
	if err != nil {
		return nil, err
	}
	var failures []string
	for _, b := range bands {
		seen := false
		for _, r := range current {
			name := benchName(r.Name)
			v, ok := r.Metrics[b.metric]
			if !ok || (b.bench != "" && name != b.bench) {
				continue
			}
			seen = true
			if v < b.lo || v > b.hi {
				failures = append(failures, fmt.Sprintf(
					"%s %s = %g is outside its band [%g, %g]", name, b.metric, v, b.lo, b.hi))
			}
		}
		if !seen {
			key := b.metric
			if b.bench != "" {
				key = b.bench + "." + b.metric
			}
			failures = append(failures, fmt.Sprintf("%s: -band given but no benchmark reported it", key))
		}
	}
	sort.Strings(failures)
	return failures, nil
}
