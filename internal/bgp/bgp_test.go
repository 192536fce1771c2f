package bgp

import (
	"math"
	"testing"
	"time"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
)

func buildWorld(t *testing.T) (*topology.Backbone, *topology.ISPModel) {
	t.Helper()
	specs := []topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
		{Metro: "seattle", FrontEnd: true, Peering: true},
		{Metro: "phoenix", FrontEnd: true, Peering: true},
		{Metro: "denver", FrontEnd: false, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "frankfurt", FrontEnd: true, Peering: true},
		{Metro: "stockholm", FrontEnd: true, Peering: true},
		{Metro: "paris", FrontEnd: true, Peering: true},
	}
	b, err := topology.Build(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	isps := topology.BuildISPs(b, geo.World(), topology.DefaultISPModelConfig(1))
	return b, isps
}

func findISPWithPolicy(t *testing.T, isps *topology.ISPModel, country string, p topology.EgressPolicy) (topology.ISPID, bool) {
	t.Helper()
	for _, id := range isps.ForCountry(country) {
		if isps.ISP(id).Policy == p {
			return id, true
		}
	}
	return 0, false
}

func anyISP(t *testing.T, isps *topology.ISPModel, country string, p topology.EgressPolicy) topology.ISPID {
	t.Helper()
	// Search all countries if the requested one lacks the policy.
	if id, ok := findISPWithPolicy(t, isps, country, p); ok {
		return id
	}
	for _, isp := range isps.ISPs {
		if isp.Policy == p {
			return isp.ID
		}
	}
	t.Fatalf("no ISP with policy %v", p)
	return 0
}

func TestHotPotatoPicksNearest(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	ispID := anyISP(t, isps, "US", topology.HotPotato)
	boston, _ := geo.FindMetro("boston")
	// Most prefixes should ingress at the nearest peering site (new-york);
	// a small minority at the second nearest due to HotPotatoMissRate.
	nearest, second, other := 0, 0, 0
	for p := uint64(0); p < 2000; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: ispID}
		ing := r.BaseIngress(c)
		switch b.Site(ing).Metro.Name {
		case "new-york":
			nearest++
		case "chicago":
			second++
		default:
			other++
		}
	}
	if frac := float64(nearest) / 2000; frac < 0.85 || frac > 0.97 {
		t.Fatalf("nearest-ingress fraction %.2f, want ~0.92", frac)
	}
	if second == 0 {
		t.Fatal("no hot-potato misses at all")
	}
	if other != 0 {
		t.Fatalf("%d clients ingressed somewhere unexpected", other)
	}
}

func TestCentralizedUsesHub(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	ispID := anyISP(t, isps, "RU", topology.Centralized)
	isp := isps.ISP(ispID)
	moscow, _ := geo.FindMetro("moscow")
	c := Client{PrefixID: 1, Point: moscow.Point, ISP: ispID}
	ing := r.BaseIngress(c)
	found := false
	for _, h := range isp.Hubs {
		if ing == h {
			found = true
		}
	}
	if !found {
		t.Fatalf("centralized ISP ingressed at %v, not a hub %v", ing, isp.Hubs)
	}
}

func TestTieBreakStableAndWithinTopK(t *testing.T) {
	b, isps := buildWorld(t)
	cfg := DefaultConfig()
	r := NewRouter(b, isps, 42, cfg)
	ispID := anyISP(t, isps, "US", topology.TieBreak)
	denverMetro, _ := geo.FindMetro("denver")
	counts := map[string]int{}
	for p := uint64(0); p < 3000; p++ {
		c := Client{PrefixID: p, Point: denverMetro.Point, ISP: ispID}
		ing := r.BaseIngress(c)
		if ing != r.BaseIngress(c) {
			t.Fatal("tie-break not stable")
		}
		counts[b.Site(ing).Metro.Name]++
	}
	if len(counts) < 2 || len(counts) > cfg.TieBreakTopK {
		t.Fatalf("tie-break spread over %d sites, want 2..%d: %v", len(counts), cfg.TieBreakTopK, counts)
	}
	// All chosen sites must be among the K nearest peering sites.
	ranked := b.RankPeeringByAir(denverMetro.Point)
	allowed := map[string]bool{}
	for i := 0; i < cfg.TieBreakTopK; i++ {
		allowed[b.Site(ranked[i]).Metro.Name] = true
	}
	for name := range counts {
		if !allowed[name] {
			t.Fatalf("tie-break chose %s outside top-%d", name, cfg.TieBreakTopK)
		}
	}
}

func TestAssignHotPotatoFrontEnd(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	// Denver is peering-only: ingress there must be served by a nearby
	// front-end over the backbone at positive distance (the paper's
	// "router A has a longer intradomain route" case).
	var denver topology.SiteID = topology.InvalidSite
	for _, s := range b.Sites {
		if s.Metro.Name == "denver" {
			denver = s.ID
		}
	}
	c := Client{PrefixID: 5, Point: b.Site(denver).Metro.Point}
	a := r.Assign(c, denver)
	if a.FrontEnd == denver {
		t.Fatal("peering-only site cannot be a front-end")
	}
	if a.BackboneKm <= 0 {
		t.Fatal("backbone distance should be positive from peering-only ingress")
	}
	if !b.Site(a.FrontEnd).FrontEnd {
		t.Fatal("assignment target is not a front-end")
	}
}

func TestUnicastAssignment(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	c := Client{PrefixID: 1, Point: boston.Point}
	fe := b.FrontEnds()[0]
	a := r.UnicastAssignment(c, fe)
	if a.FrontEnd != fe || a.Ingress != fe {
		t.Fatal("unicast must ingress at the front-end")
	}
	if a.BackboneKm != 0 {
		t.Fatal("unicast path has no backbone leg")
	}
	want := geo.DistanceKm(boston.Point, b.Site(fe).Metro.Point)
	if math.Abs(a.AirKm.Float()-want.Float()) > 1e-9 {
		t.Fatalf("unicast air distance %v, want %v", a.AirKm, want)
	}
}

func TestWeekdayCalendar(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	if r.Weekday(0) != time.Wednesday {
		t.Fatalf("day 0 = %v, want Wednesday", r.Weekday(0))
	}
	if r.Weekday(3) != time.Saturday || !r.IsWeekend(3) {
		t.Fatalf("day 3 = %v, want Saturday/weekend", r.Weekday(3))
	}
	if r.IsWeekend(5) {
		t.Fatal("day 5 (Monday) should not be weekend")
	}
	if r.Weekday(7) != time.Wednesday {
		t.Fatal("weekday should wrap weekly")
	}
}

func TestChurnWeekendQuiet(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	weekdaySwitches, weekendSwitches := 0, 0
	const n = 30000
	for p := uint64(0); p < n; p++ {
		c := Client{PrefixID: p, Point: boston.Point}
		if r.SwitchedOnDay(c, 0) { // Wednesday
			weekdaySwitches++
		}
		if r.SwitchedOnDay(c, 3) { // Saturday
			weekendSwitches++
		}
	}
	wd := float64(weekdaySwitches) / n
	we := float64(weekendSwitches) / n
	if wd < 0.03 || wd > 0.12 {
		t.Fatalf("weekday switch rate %.3f outside plausible range", wd)
	}
	if we > wd*0.25 {
		t.Fatalf("weekend switch rate %.3f not much lower than weekday %.3f", we, wd)
	}
}

func TestIngressScheduleConsistency(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	c := Client{PrefixID: 77, Point: boston.Point, ISP: 0}
	s1 := r.IngressSchedule(c, 30)
	s2 := r.IngressSchedule(c, 30)
	for d := range s1 {
		if s1[d] != s2[d] {
			t.Fatal("ingress schedule not deterministic")
		}
	}
	// The schedule only changes on switch days.
	for d := 1; d < 30; d++ {
		if s1[d] != s1[d-1] && !r.SwitchedOnDay(c, d) {
			t.Fatalf("ingress changed on day %d without a switch event", d)
		}
	}
}

// TestIngressScheduleReturnsBaseIngress: the base ingress the schedule
// builder returns is BaseIngress, for every egress policy, so callers
// that need both rank each client once.
func TestIngressScheduleReturnsBaseIngress(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	metros := geo.World()
	sched := make([]topology.SiteID, 10)
	seen := map[topology.EgressPolicy]bool{}
	for i := 0; i < 3000; i++ {
		m := metros[i%len(metros)]
		isp := topology.ISPID(i % isps.Len())
		c := Client{PrefixID: uint64(i), Point: m.Offset(50, float64(i%360)), ISP: isp}
		seen[isps.ISP(isp).Policy] = true
		if got, want := r.IngressScheduleInto(c, sched), r.BaseIngress(c); got != want {
			t.Fatalf("client %d (%v): schedule base ingress %d, BaseIngress %d", i, isps.ISP(isp).Policy, got, want)
		}
	}
	for _, p := range []topology.EgressPolicy{topology.HotPotato, topology.Centralized, topology.TieBreak} {
		if !seen[p] {
			t.Errorf("no client exercised policy %v", p)
		}
	}
}

func TestSwitchChangesIngress(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	// Find clients with a switch event after day 0 and verify the ingress
	// actually changes that day.
	checked := 0
	for p := uint64(0); p < 5000 && checked < 50; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: 0}
		sched := r.IngressSchedule(c, 14)
		for d := 1; d < 14; d++ {
			if r.SwitchedOnDay(c, d) {
				if sched[d] == sched[d-1] {
					t.Fatalf("prefix %d day %d: switch event but same ingress", p, d)
				}
				checked++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no switch events found to check")
	}
}

func TestSwitchTargetsMostlyNearby(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	var dists []float64
	for p := uint64(0); p < 20000; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: 0}
		var prev topology.SiteID
		for d, ing := range r.IngressSchedule(c, 14) {
			fe := r.Assign(c, ing).FrontEnd
			if d > 0 && fe != prev {
				a := b.Site(prev).Metro.Point
				bb := b.Site(fe).Metro.Point
				dists = append(dists, geo.DistanceKm(a, bb).Float())
			}
			prev = fe
		}
	}
	if len(dists) < 100 {
		t.Fatalf("only %d front-end switches observed", len(dists))
	}
	med := medianOf(dists)
	// Front-end switches should be to relatively nearby alternatives
	// (paper: median 483 km) — certainly not trans-oceanic.
	if med > 2500 {
		t.Fatalf("median switch distance %.0f km; switches should be nearby", med)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkIngressScheduleInto(b *testing.B) {
	specs := []topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
	}
	bb, err := topology.Build(specs, 2)
	if err != nil {
		b.Fatal(err)
	}
	isps := topology.BuildISPs(bb, geo.World(), topology.DefaultISPModelConfig(1))
	r := NewRouter(bb, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	sched := make([]topology.SiteID, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Client{PrefixID: uint64(i), Point: boston.Point, ISP: 0}
		r.IngressScheduleInto(c, sched)
	}
}
