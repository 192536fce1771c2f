// Package experiments regenerates every table and figure of the paper's
// evaluation from a simulation run. Each FigureN function returns a Report
// holding the figure's series (the same rows/lines the paper plots) plus
// headline numbers with the paper's value alongside the measured value, so
// EXPERIMENTS.md and cmd/repro can compare shapes directly.
package experiments

import (
	"fmt"
	"sort"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Headline is one paper-vs-measured comparison point.
type Headline struct {
	Name     string
	Paper    string
	Measured string
}

// Report is the output of one experiment.
type Report struct {
	ID     string // "fig1" .. "fig9", "cdn-table"
	Figure *stats.Figure
	Table  *stats.Table
	Lines  []Headline
}

// Render formats the report for terminal output.
func (r Report) Render() string {
	out := ""
	if r.Figure != nil {
		out += r.Figure.Render()
	}
	if r.Table != nil {
		out += r.Table.Render()
	}
	if len(r.Lines) > 0 {
		out += "-- paper vs measured --\n"
		for _, h := range r.Lines {
			out += fmt.Sprintf("%-52s  paper: %-18s  measured: %s\n", h.Name, h.Paper, h.Measured)
		}
	}
	return out
}

// Suite runs experiments over one simulation result, caching shared
// derived datasets.
type Suite struct {
	Res *sim.Result

	// stream holds the passive-log reports, aggregated by the same
	// StreamSuite a streaming run drives.
	stream    *StreamSuite
	dailyOnce bool
	daily     [][]Comparison
}

// NewSuite wraps a simulation result. It replays the result's passive log
// and assignments into a StreamSuite one day at a time, in the order a
// streaming run delivers them, so every passive-log report of a batch run
// comes from the one aggregation path.
func NewSuite(res *sim.Result) *Suite {
	ss := NewStreamSuite(res.Cfg, res.World)
	days := res.Cfg.Days
	passive := make([]logs.DayRecord, len(res.Assignments))
	assigns := make([]bgp.Assignment, len(res.Assignments))
	for day := 0; day < days; day++ {
		for i := range passive {
			passive[i] = res.Passive.At(i*days + day)
			assigns[i] = res.Assignments[i][day]
		}
		ss.observe(sim.DayResult{Day: day, Passive: passive, Assignments: assigns})
	}
	return &Suite{Res: res, stream: ss}
}

// Comparison is a per-(client, day) anycast-vs-best-unicast summary used
// by Figures 5 and 6: the difference between the day's median anycast
// latency and the best per-front-end median unicast latency.
type Comparison struct {
	ClientID uint64
	Day      int
	// ImprovementMs > 0 means some unicast front-end's median beat the
	// anycast median by that much.
	ImprovementMs units.Millis
	BestSite      topology.SiteID
	Volume        float64
}

// minSamplesPerTarget is the per-day floor for a (client, front-end) median
// to count in the daily comparison.
const minSamplesPerTarget = 5

// DailyComparisons computes (and caches) the per-day medians analysis.
func (s *Suite) DailyComparisons() [][]Comparison {
	if s.dailyOnce {
		return s.daily
	}
	vols := s.Res.Volumes()
	out := make([][]Comparison, len(s.Res.Beacons))
	for day, ms := range s.Res.Beacons {
		out[day] = dailyComparison(ms, day, vols)
	}
	s.daily = out
	s.dailyOnce = true
	return out
}

func dailyComparison(ms []beacon.Measurement, day int, vols map[uint64]float64) []Comparison {
	type key struct {
		client uint64
		site   topology.SiteID
	}
	anycast := map[uint64][]units.Millis{}
	unicast := map[key][]units.Millis{}
	for _, m := range ms {
		anycast[m.ClientID] = append(anycast[m.ClientID], m.Anycast.RTTms)
		for _, u := range m.Unicast {
			k := key{m.ClientID, u.Site}
			unicast[k] = append(unicast[k], u.RTTms)
		}
	}
	perClientSites := map[uint64][]key{}
	for k := range unicast {
		perClientSites[k.client] = append(perClientSites[k.client], k)
	}
	var out []Comparison
	clientIDs := make([]uint64, 0, len(anycast))
	//replay:commutative keys only; sorted immediately below, so collection order is discarded
	for id := range anycast {
		clientIDs = append(clientIDs, id)
	}
	sort.Slice(clientIDs, func(i, j int) bool { return clientIDs[i] < clientIDs[j] })
	for _, id := range clientIDs {
		as := anycast[id]
		if len(as) < minSamplesPerTarget {
			continue
		}
		anyMed, err := stats.Median(as)
		if err != nil {
			continue
		}
		bestMed := units.Millis(-1)
		var bestSite topology.SiteID = topology.InvalidSite
		sites := perClientSites[id]
		sort.Slice(sites, func(i, j int) bool { return sites[i].site < sites[j].site })
		for _, k := range sites {
			us := unicast[k]
			if len(us) < minSamplesPerTarget {
				continue
			}
			med, err := stats.Median(us)
			if err != nil {
				continue
			}
			if bestMed < 0 || med < bestMed {
				bestMed, bestSite = med, k.site
			}
		}
		if bestMed < 0 {
			continue
		}
		out = append(out, Comparison{
			ClientID:      id,
			Day:           day,
			ImprovementMs: anyMed - bestMed,
			BestSite:      bestSite,
			Volume:        vols[id],
		})
	}
	return out
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// km formats a distance.
func km(d units.Kilometers) string { return fmt.Sprintf("%.0f km", d) }

// msStr formats a latency.
func msStr(d units.Millis) string { return fmt.Sprintf("%.1f ms", d) }
