package topology_test

import (
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// sinkSite keeps the benchmark's rankings observable.
var sinkSite topology.SiteID

// benchClients returns n fixed client positions scattered around the
// catalog's metros, so the ranking sees the same geography every run.
func benchClients(n int) []geo.Point {
	metros := geo.World()
	pts := make([]geo.Point, n)
	for i := range pts {
		m := metros[i%len(metros)]
		pts[i] = m.Offset(units.Kilometers(float64(i*37%300)), float64(i*97%360))
	}
	return pts
}

// BenchmarkRankPeeringByAir ranks the default deployment's peering sites
// for 1000 fixed clients per op — the per-client geometry of the
// simulation's schedule pass — so one -benchtime=1x iteration is
// millisecond-scale rather than a single noisy sub-microsecond call.
func BenchmarkRankPeeringByAir(b *testing.B) {
	bb, err := topology.Build(cdn.DefaultSiteSpecs(), 3)
	if err != nil {
		b.Fatal(err)
	}
	pts := benchClients(1000)
	buf := make([]topology.SiteID, 0, len(bb.PeeringSites()))
	// One untimed pass warms the caches the timed ones reuse.
	for _, p := range pts {
		buf = bb.RankPeeringByAirInto(p, buf[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			buf = bb.RankPeeringByAirInto(p, buf[:0])
			sinkSite ^= buf[0]
		}
	}
}
