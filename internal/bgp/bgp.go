// Package bgp models interdomain route selection toward the CDN's anycast
// prefix, and the route dynamics (churn) that drive front-end affinity.
//
// Anycast selection happens in two halves, mirroring the paper's
// description:
//
//  1. The client's ISP picks an egress peering point toward the CDN AS
//     according to its policy (topology.EgressPolicy): hot-potato to the
//     nearest peering site, centralized through a national hub, or a
//     geography-blind tie-break among nearby peering sites.
//  2. The CDN AS routes hot-potato from that ingress to the front-end
//     nearest by IGP metric (topology.Backbone.HotPotatoFrontEnd).
//
// Unicast selection is trivial by construction: each front-end's unicast
// /24 is announced only at the peering point closest to that front-end
// (§3.1), so unicast traffic ingresses at the front-end itself.
//
// Churn: per client prefix, route-change events arrive day by day with a
// heterogeneous per-client rate (most clients are stable, a small class is
// flappy) modulated by a weekday/weekend factor — network operators push
// fewer changes on weekends (§5, Figure 7).
package bgp

import (
	"time"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// Client is the view of a client prefix that routing needs.
type Client struct {
	PrefixID uint64
	Point    geo.Point
	ISP      topology.ISPID
}

// Assignment is the outcome of anycast routing for one client on one day.
type Assignment struct {
	// Ingress is the peering site where the client's traffic enters the
	// CDN AS.
	Ingress topology.SiteID
	// FrontEnd is the front-end that serves the traffic (hot-potato from
	// Ingress).
	FrontEnd topology.SiteID
	// AirKm is the great-circle distance from the client to the ingress.
	AirKm units.Kilometers
	// BackboneKm is the IGP distance from ingress to front-end.
	BackboneKm units.Kilometers
	// Unicast marks a beacon unicast path (ingresses at the front-end's
	// own peering point; see latency.Path.Unicast).
	Unicast bool
}

// Config parameterizes routing and churn.
type Config struct {
	// TieBreakTopK is how many nearest peering sites a TieBreak ISP
	// chooses among.
	TieBreakTopK int
	// HotPotatoMissRate is the probability that a hot-potato ISP lacks
	// peering at the site nearest a given client and uses the next one.
	HotPotatoMissRate float64
	// Churn class mix: fraction of clients that are stable / moderate /
	// flappy, with the per-weekday switch probability of each class.
	StableFrac, ModerateFrac float64 // flappy = 1 - stable - moderate
	StableRate, ModerateRate float64
	FlappyRate               float64
	// WeekendFactor multiplies switch rates on Saturday and Sunday.
	WeekendFactor float64
	// StartWeekday is the day of week of simulation day 0. The paper's
	// passive dataset starts Wednesday, April 1, 2015.
	StartWeekday time.Weekday
}

// DefaultConfig returns the calibration used by the experiments.
func DefaultConfig() Config {
	return Config{
		TieBreakTopK:      4,
		HotPotatoMissRate: 0.10,
		StableFrac:        0.72,
		ModerateFrac:      0.20,
		StableRate:        0.007,
		ModerateRate:      0.13,
		FlappyRate:        0.55,
		WeekendFactor:     0.10,
		StartWeekday:      time.Wednesday,
	}
}

// Per-router substream labels, hashed once. SwitchedOnDay and churnClass
// run once per client-day; the schedule builders run once per client. All
// use value-type streams reseeded from these labels so the routing layer
// contributes no steady-state allocations to a simulated month.
var (
	labelTieBreak    = xrand.NewLabel("tiebreak")
	labelHPMiss      = xrand.NewLabel("hp-miss")
	labelChurnClass  = xrand.NewLabel("churn-class")
	labelChurnEvent  = xrand.NewLabel("churn-event")
	labelChurnTarget = xrand.NewLabel("churn-target")
)

// Router computes anycast assignments.
type Router struct {
	backbone *topology.Backbone
	isps     *topology.ISPModel
	cfg      Config
	seed     uint64
}

// NewRouter builds a router over the given backbone and ISP model.
func NewRouter(b *topology.Backbone, isps *topology.ISPModel, seed uint64, cfg Config) *Router {
	if cfg.TieBreakTopK < 1 {
		cfg.TieBreakTopK = 1
	}
	return &Router{backbone: b, isps: isps, cfg: cfg, seed: seed}
}

// Weekday returns the day of week of a simulation day.
func (r *Router) Weekday(day int) time.Weekday {
	return time.Weekday((int(r.cfg.StartWeekday) + day%7 + 7) % 7)
}

// IsWeekend reports whether the simulation day falls on a weekend.
func (r *Router) IsWeekend(day int) bool {
	wd := r.Weekday(day)
	return wd == time.Saturday || wd == time.Sunday
}

// rankBufSites sizes the stack buffers the routing paths hand to
// RankPeeringByAirInto; larger peering sets fall back to the heap.
const rankBufSites = 128

// BaseIngress returns the steady-state ingress peering site for a client,
// applying its ISP's egress policy.
func (r *Router) BaseIngress(c Client) topology.SiteID {
	isp := r.isps.ISP(c.ISP)
	if isp.Policy == topology.Centralized {
		// Nearest hub to the client among the ISP's hub set. With one hub
		// this is the paper's Moscow→Stockholm pathology whenever the hub
		// is far from the client.
		return r.nearestHub(c, isp)
	}
	var rbuf [rankBufSites]topology.SiteID
	return r.baseIngressRanked(c, isp, r.backbone.RankPeeringByAirInto(c.Point, rbuf[:0]))
}

// baseIngressRanked resolves the TieBreak and HotPotato policies given the
// client's precomputed peering ranking. The schedule builder ranks once per
// client and shares the result with every switch day.
func (r *Router) baseIngressRanked(c Client, isp topology.ISP, ranked []topology.SiteID) topology.SiteID {
	if isp.Policy == topology.TieBreak {
		k := r.cfg.TieBreakTopK
		if k > len(ranked) {
			k = len(ranked)
		}
		// A stable, geography-blind choice among the k nearest: the BGP
		// decision depends on AS-path artifacts, not distance, so it is a
		// hash of (ISP salt, prefix) — consistent for the client, but
		// uncorrelated with which candidate is closest.
		var rs xrand.Stream
		rs.Reseed(xrand.DeriveSeedL2(r.seed, labelTieBreak, isp.TieBreakSalt, c.PrefixID))
		return ranked[rs.Intn(k)]
	}
	// HotPotato
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelHPMiss, uint64(isp.ID), c.PrefixID))
	if len(ranked) > 1 && rs.Bool(r.cfg.HotPotatoMissRate) {
		return ranked[1]
	}
	return ranked[0]
}

// churnClass returns the per-weekday switch rate for a client.
func (r *Router) churnClass(prefixID uint64) float64 {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(r.seed, labelChurnClass, prefixID))
	u := rs.Float64()
	switch {
	case u < r.cfg.StableFrac:
		return r.cfg.StableRate
	case u < r.cfg.StableFrac+r.cfg.ModerateFrac:
		return r.cfg.ModerateRate
	default:
		return r.cfg.FlappyRate
	}
}

// SwitchedOnDay reports whether the client's route changed during the
// given day (a BGP path change event).
func (r *Router) SwitchedOnDay(c Client, day int) bool {
	rate := r.churnClass(c.PrefixID)
	if r.IsWeekend(day) {
		rate *= r.cfg.WeekendFactor
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelChurnEvent, c.PrefixID, uint64(day)))
	return rs.Bool(rate)
}

// alternativeIngress picks the ingress a route change lands on: usually a
// nearby alternative (rank 2–4 by distance), occasionally back to rank 1.
// ranked is the client's peering ranking from RankPeeringByAir.
func (r *Router) alternativeIngress(ranked []topology.SiteID, c Client, day int, current topology.SiteID) topology.SiteID {
	if len(ranked) == 1 {
		return ranked[0]
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelChurnTarget, c.PrefixID, uint64(day)))
	// Geometric preference over ranks: nearby alternatives dominate, with
	// a long tail, matching Figure 8's switch-distance distribution. The
	// peering set is deployment-sized, so the weights fit a stack buffer.
	var wbuf [128]float64
	var weights []float64
	if len(ranked) <= len(wbuf) {
		weights = wbuf[:len(ranked)]
	} else {
		weights = make([]float64, len(ranked))
	}
	w := 1.0
	for i := range ranked {
		if ranked[i] == current {
			weights[i] = 0 // a switch must change the ingress
			continue
		}
		weights[i] = w
		w *= 0.30
	}
	idx := rs.WeightedChoice(weights)
	if idx < 0 {
		return current
	}
	return ranked[idx]
}

// IngressSchedule returns the client's ingress for each of days [0, days).
// Day d's ingress reflects any switch events up to and including day d.
func (r *Router) IngressSchedule(c Client, days int) []topology.SiteID {
	out := make([]topology.SiteID, days)
	r.IngressScheduleInto(c, out)
	return out
}

// IngressScheduleInto fills out[d] with the client's ingress on day d, for
// d in [0, len(out)) — IngressSchedule without the allocation, for callers
// (the streaming simulation) that pack all clients' schedules into one
// flat array instead of holding a slice per client — and returns the base
// ingress the schedule starts from, BaseIngress(c). The peering ranking is
// computed once here and reused for the base choice and every switch day,
// so extra simulated days cost no extra ranking work (and no allocations),
// and a caller that also needs the base ingress need not rank again.
func (r *Router) IngressScheduleInto(c Client, out []topology.SiteID) topology.SiteID {
	isp := r.isps.ISP(c.ISP)
	var rbuf [rankBufSites]topology.SiteID
	ranked := r.backbone.RankPeeringByAirInto(c.Point, rbuf[:0])
	var cur topology.SiteID
	if isp.Policy == topology.Centralized {
		cur = r.nearestHub(c, isp)
	} else {
		cur = r.baseIngressRanked(c, isp, ranked)
	}
	base := cur
	for d := range out {
		if r.SwitchedOnDay(c, d) {
			cur = r.alternativeIngress(ranked, c, d, cur)
		}
		out[d] = cur
	}
	return base
}

// Assign resolves a full assignment from an ingress.
func (r *Router) Assign(c Client, ingress topology.SiteID) Assignment {
	fe, backboneKm := r.backbone.HotPotatoFrontEnd(ingress)
	return Assignment{
		Ingress:    ingress,
		FrontEnd:   fe,
		AirKm:      geo.DistanceKm(c.Point, r.site(ingress)),
		BackboneKm: backboneKm,
	}
}

// AssignExcluding resolves an assignment from an ingress while skipping
// front-ends for which excludedFE reports true — the CDN-side view of a
// front-end drain (internal/faults). If every front-end is excluded the
// plain hot-potato assignment is returned: a deployment cannot drain its
// last front-end, it can only overload it.
func (r *Router) AssignExcluding(c Client, ingress topology.SiteID, excludedFE func(topology.SiteID) bool) Assignment {
	fe, backboneKm := r.backbone.HotPotatoFrontEndExcluding(ingress, excludedFE)
	if fe == topology.InvalidSite {
		return r.Assign(c, ingress)
	}
	return Assignment{
		Ingress:    ingress,
		FrontEnd:   fe,
		AirKm:      geo.DistanceKm(c.Point, r.site(ingress)),
		BackboneKm: backboneKm,
	}
}

// UnicastAssignment returns the path for a direct unicast fetch from the
// client to the given front-end. The unicast /24 is announced only at the
// front-end's own peering point (§3.1), so for most clients the whole path
// rides the public Internet straight to the front-end. Clients of a
// single-interconnect centralized ISP are the exception: their ISP hauls
// ALL CDN-bound traffic through its hub, so the unicast path detours
// through the hub too and shares anycast's fate.
func (r *Router) UnicastAssignment(c Client, fe topology.SiteID) Assignment {
	airKm := geo.DistanceKm(c.Point, r.site(fe))
	if int(c.ISP) < r.isps.Len() {
		isp := r.isps.ISP(c.ISP)
		if isp.Policy == topology.Centralized && isp.SingleInterconnect {
			hub := r.nearestHub(c, isp)
			airKm = geo.DistanceKm(c.Point, r.site(hub)) +
				geo.DistanceKm(r.site(hub), r.site(fe))
		}
	}
	return Assignment{
		Ingress:    fe,
		FrontEnd:   fe,
		AirKm:      airKm,
		BackboneKm: 0,
		Unicast:    true,
	}
}

// nearestHub returns the ISP hub nearest to the client.
func (r *Router) nearestHub(c Client, isp topology.ISP) topology.SiteID {
	best, bestD := isp.Hubs[0], geo.DistanceKm(c.Point, r.site(isp.Hubs[0]))
	for _, h := range isp.Hubs[1:] {
		if d := geo.DistanceKm(c.Point, r.site(h)); d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func (r *Router) site(id topology.SiteID) geo.Point {
	return r.backbone.Site(id).Metro.Point
}

// Backbone exposes the underlying backbone (read-only use).
func (r *Router) Backbone() *topology.Backbone { return r.backbone }

// ISPs exposes the ISP model (read-only use).
func (r *Router) ISPs() *topology.ISPModel { return r.isps }
