package experiments

import (
	"bytes"
	"math"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// TestStreamSuiteMatchesSuite pins the tentpole contract at the report
// level: the streaming suite, fed day by day from StreamWorld, renders
// byte-identical reports to the batch Suite computed over the full Result.
// Every passive-log experiment is covered.
func TestStreamSuiteMatchesSuite(t *testing.T) {
	res := testutil.SuiteResult(t)
	batch := testSuite(t)
	ss := NewStreamSuite(res.Cfg, res.World)
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		batch, strm Report
	}{
		{"figure4", batch.Figure4(), ss.Figure4()},
		{"catchments", batch.Catchments(10), ss.Catchments(10)},
		{"tcp-disruption", batch.TCPDisruption(), ss.TCPDisruption()},
		{"load-shedding", batch.LoadShedding(4), ss.LoadShedding(4)},
		{"figure7", batch.Figure7(), ss.Figure7()},
		{"figure8", batch.Figure8(), ss.Figure8()},
	} {
		b, s := tc.batch.Render(), tc.strm.Render()
		if b != s {
			t.Errorf("%s: stream report differs from batch report:\n--- batch ---\n%s\n--- stream ---\n%s", tc.name, b, s)
		}
	}
}

// TestZeroQuerySwitchExcludedFromSwitchFigures pins the passive-log rules
// of the affinity figure (7) and the switch-distance figure (8) at their
// only home, the aggregators: a front-end change on a day the client sent
// no queries is invisible to the log, so neither figure may count it; a
// route change that lands on the same front-end is no change; and a
// client's first visible change marks every later day of the window.
func TestZeroQuerySwitchExcludedFromSwitchFigures(t *testing.T) {
	res := testutil.SmallResult(t)
	bb := res.World.Deployment.Backbone
	fes := bb.FrontEnds()
	if len(fes) < 3 {
		t.Fatal("fixture world needs three front-ends")
	}
	km := func(a, b topology.SiteID) units.Kilometers {
		return geo.DistanceKm(bb.Site(a).Metro.Point, bb.Site(b).Metro.Point)
	}
	rec := func(client uint64, day int, prev, fe topology.SiteID, queries int) logs.DayRecord {
		return logs.DayRecord{ClientID: client, Day: day, FrontEnd: fe, PrevFrontEnd: prev,
			Switched: prev != topology.InvalidSite, Queries: queries}
	}
	const none = topology.InvalidSite
	cases := []struct {
		name    string
		window  int
		recs    []logs.DayRecord
		wantCum []float64
		wantKm  []units.Kilometers
	}{
		{
			// Client 2's zero-query day puts it outside the observable
			// population entirely.
			name:    "zero-query switch",
			window:  figure7Week,
			recs:    []logs.DayRecord{rec(1, 1, fes[0], fes[1], 5), rec(2, 1, fes[0], fes[1], 0)},
			wantCum: []float64{0, 1, 1, 1, 1, 1, 1},
			wantKm:  []units.Kilometers{km(fes[0], fes[1])},
		},
		{
			name:    "zero-query switch only",
			window:  1,
			recs:    []logs.DayRecord{rec(1, 0, fes[0], fes[1], 0)},
			wantCum: []float64{0},
		},
		{
			// Client 1 changes on day 0, client 2 on day 2, client 3
			// never; client 4's route change keeps its front-end.
			name:   "cumulative over clients",
			window: 3,
			recs: []logs.DayRecord{
				rec(1, 0, fes[0], fes[1], 5), rec(1, 1, none, fes[1], 5),
				rec(2, 0, none, fes[0], 5), rec(2, 2, fes[0], fes[2], 5),
				rec(3, 0, none, fes[0], 5), rec(4, 1, fes[0], fes[0], 5),
			},
			wantCum: []float64{0.25, 0.25, 0.5},
			wantKm:  []units.Kilometers{km(fes[0], fes[1]), km(fes[0], fes[2])},
		},
		{
			name:   "no front-end change, no distance",
			window: 2,
			recs: []logs.DayRecord{
				rec(1, 0, fes[0], fes[1], 1), rec(2, 0, fes[2], fes[2], 1), rec(3, 1, none, fes[0], 1),
			},
			wantCum: []float64{1.0 / 3, 1.0 / 3},
			wantKm:  []units.Kilometers{km(fes[0], fes[1])},
		},
		{name: "empty", window: 5, wantCum: []float64{0, 0, 0, 0, 0}},
	}
	for _, c := range cases {
		fig7 := newSwitchAgg(c.window, 8)
		fig8 := newFig8Agg(bb)
		want8 := newFig8Agg(bb)
		for _, r := range c.recs {
			fig7.observe(r)
			fig8.observe(r)
		}
		for _, d := range c.wantKm {
			want8.sketch.Add(d)
		}
		cum := fig7.cumulative()
		if len(cum) != len(c.wantCum) {
			t.Fatalf("%s: fig7 cumulative = %v, want %v", c.name, cum, c.wantCum)
		}
		for i := range cum {
			if math.Abs(cum[i]-c.wantCum[i]) > 1e-9 {
				t.Fatalf("%s: fig7 cumulative = %v, want %v", c.name, cum, c.wantCum)
			}
		}
		if !bytes.Equal(fig8.sketch.Encode(nil), want8.sketch.Encode(nil)) {
			t.Fatalf("%s: fig8 sketch holds %d switches, want exactly the distances %v",
				c.name, fig8.sketch.N(), c.wantKm)
		}
	}
}
