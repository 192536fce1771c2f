package logs_test

import (
	"math"
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// The affinity rules of §5 (Figures 7 and 8) are applied by the
// experiment aggregators that read a passive log, not by the log itself.
// These tests write records into a Log and replay it, day by day, through
// a StreamSuite over a small world, pinning each rule as seen from the
// log's side.

// fixture is the small world the log is replayed over and three of its
// front-ends.
type fixture struct {
	cfg sim.Config
	w   *sim.World
	fes []topology.SiteID
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	w := testutil.SmallWorld(t)
	fes := w.Deployment.Backbone.FrontEnds()
	if len(fes) < 3 {
		t.Fatal("fixture world needs three front-ends")
	}
	return fixture{cfg: testutil.SmallConfig(1), w: w, fes: fes}
}

// rec builds a record; prev == topology.InvalidSite means no route change,
// stored as the zero PrevFrontEnd the way the simulator writes it.
func rec(client uint64, day int, prev, fe topology.SiteID, queries int) logs.DayRecord {
	r := logs.DayRecord{ClientID: client, Day: day, FrontEnd: fe, Queries: queries}
	if prev != topology.InvalidSite {
		r.Switched, r.PrevFrontEnd = true, prev
	}
	return r
}

// replay writes recs into a Log with Extend and Set, then feeds the log's
// records to a fresh StreamSuite grouped by day, reading them back with At.
func (f fixture) replay(t *testing.T, recs ...logs.DayRecord) *experiments.StreamSuite {
	t.Helper()
	var l logs.Log
	base := l.Extend(len(recs))
	for i, r := range recs {
		l.Set(base+i, r)
	}
	ss := experiments.NewStreamSuite(f.cfg, f.w)
	for day := range f.cfg.Days {
		d := sim.DayResult{Day: day}
		for i := range l.Len() {
			if r := l.At(i); r.Day == day {
				d.Passive = append(d.Passive, r)
				d.Assignments = append(d.Assignments, bgp.Assignment{Ingress: r.FrontEnd, FrontEnd: r.FrontEnd})
			}
		}
		if err := ss.Observe(d); err != nil {
			t.Fatal(err)
		}
	}
	return ss
}

// cumulative reads Figure 7's per-day cumulative switched fractions.
func cumulative(t *testing.T, ss *experiments.StreamSuite) []float64 {
	t.Helper()
	fig := ss.Figure7().Figure
	if fig == nil || len(fig.Series) != 1 {
		t.Fatal("Figure 7 report has no single series")
	}
	var out []float64
	for _, p := range fig.Series[0].Points {
		out = append(out, p.Y)
	}
	return out
}

func checkCumulative(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cumulative switched = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("cumulative switched = %v, want %v", got, want)
		}
	}
}

// switchesOnly returns one fresh, observable client per front-end change
// (prev, fe), the log Figure 8 must be indistinguishable from.
func switchesOnly(pairs ...[2]topology.SiteID) []logs.DayRecord {
	var out []logs.DayRecord
	for i, p := range pairs {
		out = append(out, rec(uint64(100+i), 0, p[0], p[1], 1))
	}
	return out
}

// farthestFrom returns the front-end among fes whose distance from from
// differs most from ref, so two switches land in distinct Figure 8 bins.
func (f fixture) farthestFrom(from topology.SiteID, ref float64) topology.SiteID {
	bb := f.w.Deployment.Backbone
	best, bestGap := from, -1.0
	for _, fe := range f.fes {
		if fe == from {
			continue
		}
		d := geo.DistanceKm(bb.Site(from).Metro.Point, bb.Site(fe).Metro.Point).Float()
		if gap := math.Abs(math.Log(d / ref)); gap > bestGap {
			best, bestGap = fe, gap
		}
	}
	return best
}

func TestCumulativeSwitched(t *testing.T) {
	f := newFixture(t)
	none, fes := topology.InvalidSite, f.fes
	// Client 1: changes FE on day 0. Client 2: changes on day 2.
	// Client 3: never changes. Client 4: switch without FE change.
	ss := f.replay(t,
		rec(1, 0, fes[0], fes[1], 5), rec(1, 1, none, fes[1], 5),
		rec(2, 0, none, fes[0], 5), rec(2, 2, fes[0], fes[2], 5),
		rec(3, 0, none, fes[0], 5), rec(4, 1, fes[0], fes[0], 5),
	)
	checkCumulative(t, cumulative(t, ss), []float64{0.25, 0.25, 0.5, 0.5, 0.5, 0.5, 0.5})
}

func TestCumulativeSwitchedIgnoresZeroQueryRecords(t *testing.T) {
	f := newFixture(t)
	ss := f.replay(t, rec(1, 0, f.fes[0], f.fes[1], 0))
	checkCumulative(t, cumulative(t, ss), make([]float64, 7))
}

func TestCumulativeSwitchedEmpty(t *testing.T) {
	f := newFixture(t)
	ss := f.replay(t)
	checkCumulative(t, cumulative(t, ss), make([]float64, 7))
	if fig := ss.Figure8().Figure; fig == nil || len(fig.Series) != 0 {
		t.Fatal("empty log should yield an empty Figure 8")
	}
}

func TestSwitchDistances(t *testing.T) {
	f := newFixture(t)
	none, fes := topology.InvalidSite, f.fes
	got := f.replay(t,
		rec(1, 0, fes[0], fes[1], 1),
		rec(2, 0, fes[2], fes[2], 1), // no FE change
		rec(3, 1, none, fes[0], 1),
	).Figure8().Render()
	want := f.replay(t, switchesOnly([2]topology.SiteID{fes[0], fes[1]})...).Figure8().Render()
	if got != want {
		t.Fatalf("Figure 8 should hold exactly the one front-end change:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if empty := f.replay(t).Figure8().Render(); want == empty {
		t.Fatal("a front-end change left Figure 8 empty")
	}
}

// TestZeroQuerySwitchInvisibleToBothFigures is the regression test for the
// observability rule shared by Figures 7 and 8: a front-end change on a day
// with zero queries produces no passive-log row in a real CDN, so it must be
// excluded from both the cumulative-switch fraction (Figure 7) and the
// switch-distance sample (Figure 8).
func TestZeroQuerySwitchInvisibleToBothFigures(t *testing.T) {
	f := newFixture(t)
	bb := f.w.Deployment.Backbone
	from, seen := f.fes[0], f.fes[1]
	seenKm := geo.DistanceKm(bb.Site(from).Metro.Point, bb.Site(seen).Metro.Point).Float()
	silent := f.farthestFrom(from, seenKm)
	// A silent switch (zero queries) and, for contrast, an observed one.
	ss := f.replay(t, rec(1, 0, from, silent, 0), rec(2, 0, from, seen, 3))
	checkCumulative(t, cumulative(t, ss), []float64{1, 1, 1, 1, 1, 1, 1})
	want := f.replay(t, switchesOnly([2]topology.SiteID{from, seen})...).Figure8().Render()
	if got := ss.Figure8().Render(); got != want {
		t.Fatalf("Figure 8 kept the zero-query switch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	both := f.replay(t, switchesOnly([2]topology.SiteID{from, seen}, [2]topology.SiteID{from, silent})...)
	if both.Figure8().Render() == want {
		t.Fatal("the fixture's two switches are indistinguishable in Figure 8")
	}
}
