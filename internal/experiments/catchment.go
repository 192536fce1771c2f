package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// catchmentAgg collects day-0 catchment rows one passive record at a
// time. It keeps the rows in arrival order and folds the per-front-end
// sums only in report: volumes are arbitrary floats, so the sums are
// order-sensitive in their last bits, and keeping the rows makes the
// distributed merge a plain append that reproduces the single-process
// additions exactly.
type catchmentAgg struct {
	w    *sim.World
	rows []catchmentRow
}

type catchmentRow struct {
	fe     topology.SiteID
	volume float64
	dist   units.Kilometers
}

type catchmentFE struct {
	clients int
	volume  float64
	dists   []units.Kilometers
}

func newCatchmentAgg(w *sim.World) *catchmentAgg {
	// At most one row per client, reserved up front as in figure4Agg.
	return &catchmentAgg{w: w, rows: make([]catchmentRow, 0, numClients(w))}
}

// numClients is the number of clients w materializes; an analysis world
// (a distributed run's coordinator) has none.
func numClients(w *sim.World) int {
	if w.Population == nil {
		return 0
	}
	return len(w.Population.Clients)
}

func (a *catchmentAgg) observe(r logs.DayRecord) {
	if r.Day != 0 || r.Queries == 0 {
		return
	}
	c := a.w.Population.Client(r.ClientID)
	bb := a.w.Deployment.Backbone
	a.rows = append(a.rows, catchmentRow{r.FrontEnd, c.Volume, geo.DistanceKm(c.Point, bb.Site(r.FrontEnd).Metro.Point)})
}

// appendState ships the rows in arrival order; mergeState appends a
// shard's rows after the ones already merged.
func (a *catchmentAgg) appendState(dst []byte) []byte {
	dst = slices.Grow(dst, 8+24*len(a.rows)) // see stats.ECDFBuilder.Encode
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(a.rows)))
	for _, r := range a.rows {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.fe))
		dst = putFloat(dst, r.volume)
		dst = putFloat(dst, float64(r.dist))
	}
	return dst
}

func (a *catchmentAgg) mergeState(data []byte) ([]byte, error) {
	n, data, err := getCount(data, 24)
	if err != nil {
		return nil, err
	}
	a.rows = slices.Grow(a.rows, int(n))
	for ; n > 0; n-- {
		fe, err := getSite(data, a.w.Deployment.Backbone.NumSites())
		if err != nil {
			return nil, err
		}
		a.rows = append(a.rows, catchmentRow{
			fe:     fe,
			volume: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			dist:   units.Kilometers(math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))),
		})
		data = data[24:]
	}
	return data, nil
}

func (a *catchmentAgg) report(topN int) Report {
	if topN <= 0 {
		topN = 15
	}
	bb := a.w.Deployment.Backbone
	perFE := map[topology.SiteID]*catchmentFE{}
	var totalVolume float64
	for _, r := range a.rows {
		fe := perFE[r.fe]
		if fe == nil {
			fe = &catchmentFE{}
			perFE[r.fe] = fe
		}
		fe.clients++
		fe.volume += r.volume
		totalVolume += r.volume
		fe.dists = append(fe.dists, r.dist)
	}
	type row struct {
		fe  topology.SiteID
		agg *catchmentFE
	}
	rows := make([]row, 0, len(perFE))
	//replay:commutative rows get a total order immediately below (volume, then site id), so collection order is discarded
	for fe, fa := range perFE {
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
			pct(r.agg.volume / totalVolume),
			fmt.Sprintf("%.0f", med),
			fmt.Sprintf("%.0f", p90),
		})
	}
	// Imbalance headline: top front-end share vs a uniform share.
	lines := []Headline{}
	if len(rows) > 0 && totalVolume > 0 {
		topShare := rows[0].agg.volume / totalVolume
		uniform := 1 / float64(a.w.Deployment.NumFrontEnds())
		lines = append(lines, Headline{
			Name:     "anycast load imbalance (top front-end vs uniform)",
			Paper:    "anycast 'is unaware of server load' (§2)",
			Measured: fmt.Sprintf("%.1f%% vs uniform %.1f%% (%.1fx)", 100*topShare, 100*uniform, topShare/uniform),
		})
	}
	return Report{ID: "catchments", Table: tb, Lines: lines}
}
