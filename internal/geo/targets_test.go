package geo

import (
	"math"
	"sort"
	"testing"

	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// legacyDistanceKm is DistanceKm as written before it shared its
// haversine term with Targets, kept verbatim so the refactor is pinned
// bit for bit.
func legacyDistanceKm(a, b Point) units.Kilometers {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return units.Kilometers(2 * EarthRadiusKm.Float() * math.Asin(math.Sqrt(h)))
}

// referenceRank is the brute-force answer Targets must reproduce: every
// index sorted by (DistanceKm, index).
func referenceRank(p Point, pts []Point) ([]int, []units.Kilometers) {
	idx := make([]int, len(pts))
	ds := make([]units.Kilometers, len(pts))
	for i, q := range pts {
		idx[i], ds[i] = i, DistanceKm(p, q)
	}
	sort.Slice(idx, func(a, b int) bool {
		if ds[idx[a]] != ds[idx[b]] {
			return ds[idx[a]] < ds[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx, ds
}

// checkAgainstReference fails unless RankInto and Nearest answer p
// exactly as the brute-force reference does.
func checkAgainstReference(t testing.TB, ts *Targets, pts []Point, p Point) {
	t.Helper()
	want, ds := referenceRank(p, pts)
	got := make([]int, len(pts))
	ts.RankInto(p, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RankInto(%v) = %v, want %v (km %v)", p, got, want, ds)
		}
	}
	idx, km := ts.Nearest(p)
	if len(pts) == 0 {
		if idx != -1 || !math.IsInf(km.Float(), 1) {
			t.Fatalf("Nearest on an empty set = (%d, %v)", idx, km)
		}
		return
	}
	if idx != want[0] || km != ds[want[0]] {
		t.Fatalf("Nearest(%v) = (%d, %v), want (%d, %v)", p, idx, km, want[0], ds[want[0]])
	}
}

// midpoint returns the great-circle midpoint of a and b, a point (up to
// rounding) equidistant from both.
func midpoint(a, b Point) Point {
	vec := func(p Point) (float64, float64, float64) {
		lat, lon := p.Lat*degToRad, p.Lon*degToRad
		return math.Cos(lat) * math.Cos(lon), math.Cos(lat) * math.Sin(lon), math.Sin(lat)
	}
	ax, ay, az := vec(a)
	bx, by, bz := vec(b)
	x, y, z := ax+bx, ay+by, az+bz
	return Point{Lat: math.Atan2(z, math.Hypot(x, y)) / degToRad, Lon: math.Atan2(y, x) / degToRad}
}

func catalogPoints() []Point {
	ms := World()
	pts := make([]Point, len(ms))
	for i, m := range ms {
		pts[i] = m.Point
	}
	return pts
}

func TestDistanceKmMatchesLegacy(t *testing.T) {
	for i := 0; i < 20000; i++ {
		rs := xrand.Substream(7, "geo-legacy", uint64(i))
		a, b := randPoint(rs), randPoint(rs)
		if got, want := DistanceKm(a, b), legacyDistanceKm(a, b); math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Fatalf("DistanceKm(%v, %v) = %v, legacy %v", a, b, got, want)
		}
	}
}

// TestTargetsMatchReference checks the prepared-target kernel against
// brute force over random origins, origins exactly at a target (h == 0),
// midpoints of target pairs (near-ties that differ by a few ulps), exact
// mirror-image ties, duplicate coordinates, the poles and the
// antimeridian.
func TestTargetsMatchReference(t *testing.T) {
	catalog := catalogPoints()
	sets := map[string][]Point{
		"catalog": catalog,
		"mirror": { // exactly tied pairs around the equator and meridian 0
			{Lat: 10, Lon: 20}, {Lat: -10, Lon: 20}, {Lat: 0, Lon: 5}, {Lat: 0, Lon: -5},
			{Lat: 30, Lon: -40}, {Lat: -30, Lon: -40},
		},
		"duplicates": {
			catalog[3], catalog[7], catalog[3], catalog[11], catalog[7], catalog[3],
		},
		"poles": {
			{Lat: 90, Lon: 0}, {Lat: 90, Lon: 120}, {Lat: -90, Lon: 0}, {Lat: 89.999, Lon: -60},
			{Lat: -89.5, Lon: 45}, {Lat: 0, Lon: 0},
		},
		"antimeridian": {
			{Lat: 10, Lon: 179.9}, {Lat: 10, Lon: -179.9}, {Lat: -5, Lon: 180}, {Lat: -5, Lon: -180},
			{Lat: 60, Lon: 179.999}, {Lat: 60, Lon: -179.999},
		},
		"single": {catalog[0]},
		"empty":  nil,
	}
	var nearTies int
	for name, pts := range sets {
		ts := NewTargets(pts)
		if ts.Len() != len(pts) {
			t.Fatalf("%s: Len = %d, want %d", name, ts.Len(), len(pts))
		}
		var origins []Point
		for i := 0; i < 2000; i++ {
			origins = append(origins, randPoint(xrand.Substream(11, "geo-targets", uint64(i))))
		}
		origins = append(origins, Point{Lat: 90, Lon: 0}, Point{Lat: -90, Lon: 0},
			Point{Lat: 0, Lon: 180}, Point{Lat: 0, Lon: -180}, Point{Lat: 0, Lon: 0})
		for i, a := range pts {
			origins = append(origins, a)
			for j := i + 1; j < len(pts) && j <= i+8; j++ {
				origins = append(origins, midpoint(a, pts[j]))
			}
		}
		for _, p := range origins {
			checkAgainstReference(t, &ts, pts, p)
			nearTies += countNearTies(&ts, p)
		}
	}
	// The midpoints must actually reach the tie window with unequal
	// terms, or the re-sort path above went untested.
	if nearTies == 0 {
		t.Fatal("no origin produced unequal haversine terms inside the tie window")
	}
}

// countNearTies counts adjacent pairs, in h order, whose haversine
// terms from p differ but fall inside the tie window.
func countNearTies(ts *Targets, p Point) int {
	cosP := math.Cos(p.Lat * degToRad)
	hs := make([]float64, ts.Len())
	for i, q := range ts.pts {
		hs[i] = haversine(p, q, cosP, ts.cosLat[i])
	}
	sort.Float64s(hs)
	n := 0
	for i := 1; i < len(hs); i++ {
		if hs[i] != hs[i-1] && near(hs[i-1], hs[i]) {
			n++
		}
	}
	return n
}

// TestRankIntoLargeSet covers the heap fallback for sets past the stack
// scratch.
func TestRankIntoLargeSet(t *testing.T) {
	var pts []Point
	for i := 0; i < rankStackTargets+50; i++ {
		pts = append(pts, randPoint(xrand.Substream(13, "geo-large", uint64(i))))
	}
	ts := NewTargets(pts)
	for i := 0; i < 50; i++ {
		checkAgainstReference(t, &ts, pts, randPoint(xrand.Substream(17, "geo-large-origin", uint64(i))))
	}
}

func TestNewTargetsCopies(t *testing.T) {
	pts := []Point{{Lat: 1, Lon: 2}}
	ts := NewTargets(pts)
	pts[0] = Point{Lat: 50, Lon: 50}
	if ts.Point(0) != (Point{Lat: 1, Lon: 2}) {
		t.Fatal("NewTargets shares the caller's slice")
	}
}

// FuzzTargetsMatchReference drives the kernel with an origin and four
// targets; mode places the origin on a target or at a pair's midpoint,
// or duplicates a target, to aim at the tie window.
func FuzzTargetsMatchReference(f *testing.F) {
	f.Add(40.7, -74.0, 42.4, -71.1, 41.9, -87.6, 34.1, -118.2, 51.5, -0.1, uint8(0))
	f.Add(0.0, 0.0, 10.0, 20.0, -10.0, 20.0, 0.0, 5.0, 0.0, -5.0, uint8(0))
	f.Add(0.0, 0.0, 48.9, 2.4, 50.1, 8.7, 52.4, 4.9, 48.9, 2.4, uint8(1))
	f.Add(0.0, 0.0, 48.9, 2.4, 50.1, 8.7, 52.4, 4.9, 40.4, -3.7, uint8(2))
	f.Add(89.9, 10.0, 90.0, 0.0, 90.0, 120.0, -90.0, 0.0, 10.0, 179.9, uint8(3))
	f.Add(0.0, 180.0, 10.0, 179.9, 10.0, -179.9, -5.0, 180.0, -5.0, -180.0, uint8(0))
	f.Fuzz(func(t *testing.T, lat, lon, lat0, lon0, lat1, lon1, lat2, lon2, lat3, lon3 float64, mode uint8) {
		p := Point{Lat: lat, Lon: lon}
		pts := []Point{{lat0, lon0}, {lat1, lon1}, {lat2, lon2}, {lat3, lon3}}
		switch mode % 4 {
		case 1:
			p = pts[int(mode/4)%len(pts)]
		case 2:
			p = midpoint(pts[0], pts[1+int(mode/4)%3])
		case 3:
			pts[1+int(mode/4)%3] = pts[0]
		}
		if !p.Valid() {
			t.Skip()
		}
		for _, q := range pts {
			if !q.Valid() {
				t.Skip()
			}
		}
		ts := NewTargets(pts)
		checkAgainstReference(t, &ts, pts, p)
	})
}

// BenchmarkTargetsNearest measures one nearest search over the catalog.
func BenchmarkTargetsNearest(b *testing.B) {
	ts := NewTargets(catalogPoints())
	p := Point{Lat: 40.71, Lon: -74.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ts.Nearest(p)
	}
}

// TestSortRunByKmBreaksCollapsedTiesByIndex pins why runs inside the tie
// window are re-sorted: adjacent haversine terms can round to the same
// kilometers, and then the reference order is by index even though the
// terms themselves order the other way.
func TestSortRunByKmBreaksCollapsedTiesByIndex(t *testing.T) {
	h1 := 0.25
	h2 := math.Nextafter(h1, 1)
	for kmFromHaversine(h1) != kmFromHaversine(h2) {
		h1, h2 = h2, math.Nextafter(h2, 1)
	}
	idx := []int{5, 2}
	sortRunByKm(idx, []float64{h1, h2})
	if idx[0] != 2 || idx[1] != 5 {
		t.Fatalf("run sorted to %v, want [2 5]", idx)
	}
}
