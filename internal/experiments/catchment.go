package experiments

import (
	"fmt"
	"sort"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Catchments characterizes each front-end's anycast catchment on day 0 of
// the passive logs: how many clients and how much query volume BGP
// delivers to it, and how geographically tight that catchment is. This is
// the operator-facing companion to Figure 4 — the same data viewed from
// the server side — and quantifies the load imbalance §2 says anycast
// cannot control ("anycast is unaware of server load").
func (s *Suite) Catchments(topN int) Report { return s.stream.Catchments(topN) }

// catchmentAgg accumulates per-front-end catchment statistics one passive
// record at a time.
type catchmentAgg struct {
	w           *sim.World
	perFE       map[topology.SiteID]*catchmentFE
	totalVolume float64
}

type catchmentFE struct {
	clients int
	volume  float64
	dists   []units.Kilometers
}

func newCatchmentAgg(w *sim.World) *catchmentAgg {
	return &catchmentAgg{w: w, perFE: map[topology.SiteID]*catchmentFE{}}
}

func (a *catchmentAgg) observe(r logs.DayRecord) {
	if r.Day != 0 || r.Queries == 0 {
		return
	}
	c := a.w.Population.Client(r.ClientID)
	bb := a.w.Deployment.Backbone
	a.apply(r.FrontEnd, c.Volume, geo.DistanceKm(c.Point, bb.Site(r.FrontEnd).Metro.Point))
}

// apply folds one day-0 record's contribution in. Volumes are arbitrary
// floats, so the per-front-end and total sums are order-sensitive in
// their last bits: the distributed merge ships each shard's (front-end,
// volume, distance) tuples verbatim and replays them here in global
// client order, reproducing the single-process additions exactly rather
// than re-associating partial sums.
func (a *catchmentAgg) apply(feID topology.SiteID, volume float64, dist units.Kilometers) {
	fe := a.perFE[feID]
	if fe == nil {
		fe = &catchmentFE{}
		a.perFE[feID] = fe
	}
	fe.clients++
	fe.volume += volume
	a.totalVolume += volume
	fe.dists = append(fe.dists, dist)
}

func (a *catchmentAgg) report(topN int) Report {
	if topN <= 0 {
		topN = 15
	}
	bb := a.w.Deployment.Backbone
	type row struct {
		fe  topology.SiteID
		agg *catchmentFE
	}
	rows := make([]row, 0, len(a.perFE))
	//replay:commutative rows get a total order immediately below (volume, then site id), so collection order is discarded
	for fe, fa := range a.perFE {
		rows = append(rows, row{fe, fa})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].agg.volume != rows[j].agg.volume {
			return rows[i].agg.volume > rows[j].agg.volume
		}
		return rows[i].fe < rows[j].fe // break volume ties: map order must not reach the output
	})

	tb := &stats.Table{
		Title: "Anycast catchments (day 0): the server-side view of Figure 4",
		Columns: []string{
			"front-end", "clients", "volume share",
			"median client km", "p90 client km",
		},
	}
	for i, r := range rows {
		if i >= topN {
			tb.Notes = append(tb.Notes,
				fmt.Sprintf("%d further front-ends omitted (top %d by volume shown)", len(rows)-topN, topN))
			break
		}
		med, _ := stats.Quantile(r.agg.dists, 0.5)
		p90, _ := stats.Quantile(r.agg.dists, 0.9)
		tb.Rows = append(tb.Rows, []string{
			bb.Site(r.fe).Metro.Name,
			fmt.Sprintf("%d", r.agg.clients),
			pct(r.agg.volume / a.totalVolume),
			fmt.Sprintf("%.0f", med),
			fmt.Sprintf("%.0f", p90),
		})
	}
	// Imbalance headline: top front-end share vs a uniform share.
	lines := []Headline{}
	if len(rows) > 0 && a.totalVolume > 0 {
		topShare := rows[0].agg.volume / a.totalVolume
		uniform := 1 / float64(a.w.Deployment.NumFrontEnds())
		lines = append(lines, Headline{
			Name:     "anycast load imbalance (top front-end vs uniform)",
			Paper:    "anycast 'is unaware of server load' (§2)",
			Measured: fmt.Sprintf("%.1f%% vs uniform %.1f%% (%.1fx)", 100*topShare, 100*uniform, topShare/uniform),
		})
	}
	return Report{ID: "catchments", Table: tb, Lines: lines}
}
