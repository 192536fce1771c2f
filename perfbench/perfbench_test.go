package main

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anycastcdn/internal/experiments"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{1, 2, 3}, 1, 2, 3, 1},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75, 1},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{2.5, 7.25, 1, 9, 4, 4}, 2.125, 4, 7.6875, 1.390625},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", tc.xs, s, tc.q1, tc.m, tc.q3)
		}
		if got := s.spread(); math.Abs(got-tc.wantSpread) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", tc.xs, got, tc.wantSpread)
		}
	}
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 {
		t.Error("summarize reordered its input")
	}
}

func TestSelfTimesSubtractsNestedChildren(t *testing.T) {
	// root [0,100) holds a [10,30) with its own child [12,20), b [20,50)
	// overlapping a, and c twice: [60,70), then [90,120) past root's end.
	spans := spanSet{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 2, Name: "leaf", Start: 12, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 5, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 6, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// Children cover [10,50) + [60,70) + [90,100) = 60 of root's 100.
		"root": 40,
		"a":    12,
		"leaf": 8,
		"b":    30,
		"c":    10 + 30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderNestsAndCounts(t *testing.T) {
	r := newRecorder("run")
	root := r.begin("root")
	a := r.begin("a")
	r.count(a, "items", 2)
	r.count(a, "items", 3)
	r.end(a)
	b := r.begin("b")
	r.end(b)
	r.end(root)
	other := r.begin("other")
	r.end(other)

	if len(r.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(r.spans))
	}
	for _, s := range r.spans {
		if s.Run != "run" || s.End < s.Start {
			t.Errorf("span %+v: want run id and end >= start", s)
		}
	}
	if r.spans[1].Parent != root || r.spans[2].Parent != root || r.spans[3].Parent != 0 {
		t.Errorf("parents = %d, %d, %d; want %d, %d, 0",
			r.spans[1].Parent, r.spans[2].Parent, r.spans[3].Parent, root, root)
	}
	under := r.under(root)
	if len(under) != 2 || under.sum("a", "items") != 5 {
		t.Errorf("under(root) = %+v, want a (items 5) and b", under)
	}

	var off *recorder // tracing off
	id := off.begin("x")
	off.count(id, "n", 1)
	off.end(id)
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func TestValidMetric(t *testing.T) {
	for _, tc := range []struct {
		name, unit string
		ok         bool
	}{
		{"client_days_per_s", "1/s", true},
		{"sim.build_world_s", "s", true},
		{"9lives", "%", true},
		{"bgp.ingress_schedule_ns_per_client", "ns", true},
		{"_leading", "s", false},
		{".leading", "s", false},
		{"has space", "s", false},
		{strings.Repeat("x", 65), "s", false},
		{strings.Repeat("x", 64), "s", true},
		{"ok", "", false},
		{"ok", "seventeen-chars-x", false},
		{"ok", "MiB", true},
		{"ok", "m s", false},
	} {
		err := validMetric(tc.name, tc.unit)
		if (err == nil) != tc.ok {
			t.Errorf("validMetric(%q, %q) = %v, want ok=%v", tc.name, tc.unit, err, tc.ok)
		}
	}
}

func TestBenchmarkJSONDeclaresWhatIsEmitted(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in seconds")
	}
	res := &result{}
	for _, m := range s.EndToEnd {
		res.set(m.Name, m.Unit, 1)
	}
	if err := res.conform(s.EndToEnd); err != nil {
		t.Errorf("a complete result fails conform: %v", err)
	}
	res.set("undeclared", "s", 1)
	if err := res.conform(s.EndToEnd); err == nil || !strings.Contains(err.Error(), "undeclared is not declared") {
		t.Errorf("conform accepted an undeclared metric: %v", err)
	}
	delete(res.Metrics, "undeclared")
	res.set("cpu_s", "ms", 1)
	if err := res.conform(s.EndToEnd); err == nil {
		t.Error("conform accepted a wrong unit")
	}
	res.set("cpu_s", "s", math.NaN())
	if err := res.conform(s.EndToEnd); err == nil {
		t.Error("conform accepted NaN")
	}
	delete(res.Metrics, "cpu_s")
	if err := res.conform(s.EndToEnd); err == nil || !strings.Contains(err.Error(), "cpu_s was not measured") {
		t.Errorf("conform accepted a missing metric: %v", err)
	}
	for _, w := range workloads {
		if _, err := findWorkload(w.name); err != nil {
			t.Error(err)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("findWorkload accepted an unknown name")
	}
}

func TestFailingOutputCheckCountsAsFailedRun(t *testing.T) {
	good := map[string]string{"reports.txt": "aa", "passive.csv": "bb"}
	ref := func() *reference { return &reference{Reference: map[string]string{"reports.txt": "aa"}} }

	execs := []execution{{Digests: good}, {Digests: good}}
	if n := checkExecutions(execs, ref()); n != 0 {
		t.Fatalf("matching outputs: %d failed, want 0", n)
	}

	execs = []execution{
		{Digests: good},
		{Digests: map[string]string{"reports.txt": "zz", "passive.csv": "bb"}}, // wrong report
		{Err: errors.New("exit status 1")},                                     // crashed
		{Digests: map[string]string{"reports.txt": "aa", "passive.csv": "cc"}}, // drifted from the set
		{Digests: map[string]string{"reports.txt": "aa"}},                      // an output missing
	}
	r := ref()
	if n := checkExecutions(execs, r); n != 4 {
		t.Errorf("%d failed, want 4", n)
	}
	for i, ex := range execs {
		if (ex.Err == nil) != (i == 0) {
			t.Errorf("execution %d: err %v", i, ex.Err)
		}
	}
	if r.Outputs["passive.csv"] != "bb" {
		t.Errorf("set outputs = %v, want the first passing execution's", r.Outputs)
	}

	// A cached earlier run with the same seed fixes the set's outputs.
	r = ref()
	r.Outputs = map[string]string{"reports.txt": "aa", "passive.csv": "old"}
	if n := checkExecutions([]execution{{Digests: good}}, r); n != 1 {
		t.Errorf("output differing from an earlier run: %d failed, want 1", n)
	}
}

func TestHeadlinesRoundTrip(t *testing.T) {
	reports := []experiments.Report{
		{ID: "fig1", Lines: []experiments.Headline{{Name: "a metric", Paper: "~30%", Measured: "11.2%"}}},
		{ID: "cdn-table"},
		{ID: "fig9", Lines: []experiments.Headline{
			{Name: "EDNS-0 Median: weighted /24s improved", Paper: "~30%", Measured: "11.2%"},
			{Name: "x", Paper: "1 ms", Measured: "2 ms"},
		}},
	}
	// The layout cmd/repro -q prints.
	out := "simulated 4000 client /24s over 30 days: 1 beacon executions in 1.2s\n\n" +
		"[fig1]\n  a metric                                             paper: ~30%                   measured: 11.2%\n" +
		"[cdn-table]\n" +
		"[fig9]\n  EDNS-0 Median: weighted /24s improved                paper: ~30%                   measured: 11.2%\n" +
		"  x                                                    paper: 1 ms                   measured: 2 ms\n"
	got, err := parseHeadlines([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if want := canonicalHeadlines(reports); string(got) != string(want) {
		t.Errorf("parsed\n%s\nwant\n%s", got, want)
	}
	if _, err := parseHeadlines([]byte("[fig1]\n  no separators here\n")); err == nil {
		t.Error("accepted a malformed headline")
	}
	if _, err := parseHeadlines([]byte("repro: boom\n")); err == nil {
		t.Error("accepted output with no headlines")
	}
}

func TestLargestShard(t *testing.T) {
	for _, tc := range []struct{ n, shards, lo, hi int }{
		{200000, 2, 0, 100000},
		{7, 2, 3, 7},
		{10, 3, 6, 10},
		{5, 1, 0, 5},
	} {
		lo, hi := largestShard(tc.n, tc.shards)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("largestShard(%d, %d) = [%d, %d), want [%d, %d)", tc.n, tc.shards, lo, hi, tc.lo, tc.hi)
		}
	}
}
