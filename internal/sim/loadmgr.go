package sim

import (
	"fmt"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/load"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// SiteUtil is one front-end's load picture for one simulated day under
// load management: the queries it actually served after any DNS-layer
// redirection, against its derived capacity.
type SiteUtil struct {
	Site topology.SiteID
	// Queries is the effective served volume (post-redirection).
	Queries float64
	// Capacity is the site's derived or configured capacity.
	Capacity float64
	// ShedFrac is the site's ring-0 shed fraction at end of day (zero
	// unless the FastRoute policy is active).
	ShedFrac float64
	// Withdrawn reports whether the naive strategy withdrew the site's
	// route this day.
	Withdrawn bool
}

// Utilization is the served-to-capacity ratio (1.0 = at capacity).
func (u SiteUtil) Utilization() float64 { return u.Queries / u.Capacity }

// loadManager drives the load package inside the simulation day loop.
// One instance exists per StreamWorld invocation when Config.LoadManager
// is set; all of its state is deterministic functions of (config, world),
// so managed runs replay byte-identically.
type loadManager struct {
	cfg    load.ManagerConfig // defaulted
	bb     *topology.Backbone
	caps   map[topology.SiteID]float64
	layers []load.Layer
	// bal is the layered balancer; non-nil only for the FastRoute
	// policy. Its shed fractions persist across days, which is what
	// carries the controller's hysteresis through a multi-day surge.
	bal *load.Balancer
	// withdrawn is the Withdraw policy's decision state, carried across
	// days; routeWithdrawn is the set actually applied to TODAY's routing
	// (yesterday's decision — route withdrawal reacts a control interval
	// late, which is what makes the paper's cascade roll); and
	// rehome[ingress] caches where anycast re-homes each ingress's
	// traffic under routeWithdrawn.
	withdrawn      map[topology.SiteID]bool
	routeWithdrawn map[topology.SiteID]bool
	rehome         []topology.SiteID
	// demand, served and utils are per-day scratch, reused.
	demand map[topology.SiteID]float64
	served map[topology.SiteID]float64
	utils  []SiteUtil
}

// ShardLoadMatrix accumulates the fault-free scheduled load of clients
// [lo, hi) into a flat [Days][front-end] matrix (day-major, front-ends in
// bb.FrontEnds() order): cell (d, f) is the sum of those clients'
// fault-free day-d queries whose scheduled catchment is front-end f. The
// matrix is the distributable half of capacity derivation — queries are
// integers, so float64 cell sums are exact and shard matrices reduce by
// plain addition into exactly the full-population matrix, regardless of
// how the population was sharded. CapsFromLoadMatrix is the other half.
//
// Memory is one Days x front-ends matrix plus a Days-length scratch
// schedule, independent of the shard size — this is also what the
// single-process derivation runs, replacing the clients x days schedule
// array it used to materialize.
func ShardLoadMatrix(cfg Config, w *World, lo, hi int) ([]float64, error) {
	if cfg.LoadManager == nil {
		return nil, fmt.Errorf("sim: load matrix requested without a load-manager config")
	}
	base := int(w.Population.Base)
	if lo < base || hi < lo || hi > base+len(w.Population.Clients) {
		return nil, fmt.Errorf("sim: load-matrix shard [%d, %d) outside population [%d, %d)", lo, hi, base, base+len(w.Population.Clients))
	}
	bb := w.Deployment.Backbone
	fes := bb.FrontEnds()
	feIdx := make(map[topology.SiteID]int, len(fes))
	for i, fe := range fes {
		feIdx[fe] = i
	}
	weekend := make([]bool, cfg.Days)
	for d := range weekend {
		weekend[d] = w.Router.IsWeekend(d)
	}
	m := make([]float64, cfg.Days*len(fes))
	sched := make([]topology.SiteID, cfg.Days)
	trafficSeed := xrand.DeriveSeedL(cfg.Seed, labelTraffic)
	// Serial, in client order: per matrix cell the additions run in
	// ascending client order, the same per-cell sequence the pre-matrix
	// serial derivation produced — and integer-valued besides, so the
	// reduction over shards is exact.
	for i := lo; i < hi; i++ {
		cl := w.Population.Clients[i-base]
		rc := bgp.Client{PrefixID: cl.ID, Point: cl.Point, ISP: cl.ISP}
		w.Router.IngressScheduleInto(rc, sched)
		for d, ing := range sched {
			fe, _ := bb.HotPotatoFrontEnd(ing)
			f := feIdx[fe]
			m[d*len(fes)+f] += float64(cl.QueriesOnDay(trafficSeed, d, weekend[d], cfg.QueriesPerVolume))
		}
	}
	return m, nil
}

// CapsFromLoadMatrix derives per-front-end capacities from a full
// population load matrix (ShardLoadMatrix over [0, n), or the elementwise
// sum of shard matrices): headroom over each site's peak fault-free day,
// floored at half the fleet-mean peak. A pure serial function of the
// matrix, so every process that holds the same reduced matrix — the
// coordinator and each worker replica of a distributed run — derives
// bitwise-identical capacities.
func CapsFromLoadMatrix(cfg Config, w *World, m []float64) (map[topology.SiteID]float64, error) {
	if cfg.LoadManager == nil {
		return nil, fmt.Errorf("sim: capacity derivation requested without a load-manager config")
	}
	bb := w.Deployment.Backbone
	fes := bb.FrontEnds()
	if len(m) != cfg.Days*len(fes) {
		return nil, fmt.Errorf("sim: load matrix has %d cells, want %d days x %d front-ends", len(m), cfg.Days, len(fes))
	}
	c := cfg.LoadManager.WithDefaults()
	// Capacity is headroom over each site's PEAK day at the SCHEDULED
	// catchment (clients switch front-ends across days even without
	// faults, so the base-day catchment would under-provision the sites
	// those switches land on), because daily per-prefix volume is
	// lognormally bursty — a site provisioned for its mean day would
	// overload on ordinary fault-free days. The floor keeps idle sites
	// some spillover slack without letting a regional flash crowd hide
	// inside a floor that dwarfs small catchments. Deterministic
	// front-end order for the sums.
	caps := make(map[topology.SiteID]float64, len(fes))
	var mean float64
	for f := range fes {
		var peak float64
		for d := 0; d < cfg.Days; d++ {
			if v := m[d*len(fes)+f]; v > peak {
				peak = v
			}
		}
		caps[fes[f]] = peak
		mean += peak
	}
	mean /= float64(len(fes))
	for _, fe := range fes {
		q := caps[fe]
		if q < mean/2 {
			q = mean / 2
		}
		caps[fe] = c.Headroom * q
	}
	return caps, nil
}

// newLoadManager compiles cfg.LoadManager against a built world; it
// returns (nil, nil) when the subsystem is inactive. Capacity derivation
// is a pure serial function of the world (client order, fault-free base
// catchment), so every policy arm of an experiment sees identical
// capacities and rings. explicitCaps overrides the config's capacity map
// when non-nil (the distributed stream injects coordinator-reduced
// capacities this way).
func newLoadManager(cfg Config, w *World, explicitCaps map[topology.SiteID]float64) (*loadManager, error) {
	if cfg.LoadManager == nil {
		return nil, nil
	}
	if err := cfg.LoadManager.Validate(); err != nil {
		return nil, err
	}
	c := cfg.LoadManager.WithDefaults()
	if explicitCaps != nil {
		c.Capacity = explicitCaps
	}
	bb := w.Deployment.Backbone
	caps := make(map[topology.SiteID]float64, len(bb.FrontEnds()))
	if c.Capacity != nil {
		// Copy: DeriveRings raises deep-ring capacities in place and the
		// caller's map must stay untouched.
		for _, fe := range bb.FrontEnds() {
			caps[fe] = c.Capacity[fe]
		}
	} else {
		base := int(w.Population.Base)
		m, err := ShardLoadMatrix(cfg, w, base, base+len(w.Population.Clients))
		if err != nil {
			return nil, err
		}
		derived, err := CapsFromLoadMatrix(cfg, w, m)
		if err != nil {
			return nil, err
		}
		for _, fe := range bb.FrontEnds() {
			caps[fe] = derived[fe]
		}
	}
	layers := load.DeriveRings(bb, caps, c.DeepRingShare, c.MegaShare)
	m := &loadManager{
		cfg:            c,
		bb:             bb,
		caps:           caps,
		layers:         layers,
		withdrawn:      map[topology.SiteID]bool{},
		routeWithdrawn: map[topology.SiteID]bool{},
		demand:         make(map[topology.SiteID]float64, bb.NumSites()),
		served:         make(map[topology.SiteID]float64, bb.NumSites()),
		utils:          make([]SiteUtil, 0, len(bb.FrontEnds())),
		rehome:         make([]topology.SiteID, bb.NumSites()),
	}
	if c.Policy == load.FastRoute {
		bal, err := load.NewBalancer(bb, layers, caps)
		if err != nil {
			return nil, err
		}
		bal.HighWatermark = c.HighWatermark
		bal.LowWatermark = c.LowWatermark
		bal.Gain = c.Gain
		bal.MaxStep = c.MaxStep
		bal.HeavyShare = c.HeavyShare
		m.bal = bal
	}
	return m, nil
}

// demandFrom aggregates the day's offered load by ingress over the given
// records. Serial, in client order, so the demand sums are bit-stable
// regardless of worker count — and integer-valued, so per-shard demand
// maps reduce exactly into the full-population one. The returned map is
// the manager's reusable scratch, valid until the next call.
func (m *loadManager) demandFrom(passive []logs.DayRecord, assigns []bgp.Assignment) map[topology.SiteID]float64 {
	clear(m.demand)
	for i := range passive {
		m.demand[assigns[i].Ingress] += float64(passive[i].Queries)
	}
	return m.demand
}

// policyStep runs the policy's control decision against a day's offered
// load. In a sharded run every worker calls this with the SAME
// coordinator-reduced global demand map, so the policy state machines —
// balancer shed fractions, withdrawal sets — stay bitwise-identical
// replicas on every process.
func (m *loadManager) policyStep(demand map[topology.SiteID]float64) {
	switch m.cfg.Policy {
	case load.Static:
		// Observe only.
	case load.FastRoute:
		// Intra-day fixpoint of the distributed watermark controller:
		// within a simulated day the real system runs many short control
		// rounds, so the day's shed fractions are the equilibrium the
		// local rules reach (bounded by StepsPerDay). State persists to
		// the next day — that is the hysteresis across the surge window.
		m.bal.Converge(demand, m.cfg.StepsPerDay)
	case load.Withdraw:
		// Today's routing applies yesterday's decision, then tonight's
		// decision reacts to today's offered load under that routing: the
		// naive operator only sees overload after it has happened, so the
		// first interval's withdrawals dump their catchments onto
		// neighbours that the next interval withdraws in turn.
		clear(m.routeWithdrawn)
		//replay:commutative set copy; each key written once
		for fe := range m.withdrawn {
			m.routeWithdrawn[fe] = true
		}
		for id := range m.rehome {
			m.rehome[id] = load.NearestStandingFE(m.bb, topology.SiteID(id), m.routeWithdrawn)
		}
		m.withdrawn = load.WithdrawStep(m.bb, demand, m.caps, m.routeWithdrawn)
	}
}

// route resolves where one client's queries are actually served after
// the policy's DNS-layer decision. FastRoute draws its uniform from a
// dedicated (client, day)-keyed substream, so managed runs stay
// schedule-independent and an inactive balancer leaves the assignment
// untouched.
func (m *loadManager) route(seed uint64, clientID uint64, day int, a bgp.Assignment, queries int) topology.SiteID {
	switch m.cfg.Policy {
	case load.FastRoute:
		var rs xrand.Stream
		rs.Reseed(xrand.DeriveSeedL2(seed, labelLoadU, clientID, uint64(day)))
		return m.bal.RouteFrom(a.Ingress, a.FrontEnd, rs.Float64(), float64(queries))
	case load.Withdraw:
		if m.routeWithdrawn[a.FrontEnd] {
			if fe := m.rehome[a.Ingress]; fe != topology.InvalidSite {
				return fe
			}
		}
	}
	return a.FrontEnd
}

// observeServed totals the day's effective served volume per front-end
// and snapshots per-site utilization. Serial, in client order. The
// returned slice is reused for the next day (DayResult ownership rules).
func (m *loadManager) observeServed(passive []logs.DayRecord) []SiteUtil {
	clear(m.served)
	for i := range passive {
		m.served[passive[i].FrontEnd] += float64(passive[i].Queries)
	}
	m.utils = m.utils[:0]
	for _, fe := range m.bb.FrontEnds() {
		su := SiteUtil{
			Site:      fe,
			Queries:   m.served[fe],
			Capacity:  m.caps[fe],
			Withdrawn: m.routeWithdrawn[fe],
		}
		if m.bal != nil {
			su.ShedFrac = m.bal.ShedFraction(0, fe)
		}
		m.utils = append(m.utils, su)
	}
	return m.utils
}
