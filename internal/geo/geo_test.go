package geo

import (
	"math"
	"testing"
	"testing/quick"

	"anycastcdn/internal/units"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b       string
		wantKm     float64
		toleranceK float64
	}{
		{"new-york", "los-angeles", 3940, 100},
		{"london", "paris", 344, 25},
		{"moscow", "stockholm", 1230, 80},
		{"denver", "phoenix", 950, 80},
		{"tokyo", "osaka", 400, 40},
		{"sydney", "auckland", 2160, 120},
	}
	for _, c := range cases {
		ma, ok := FindMetro(c.a)
		if !ok {
			t.Fatalf("metro %q missing", c.a)
		}
		mb, ok := FindMetro(c.b)
		if !ok {
			t.Fatalf("metro %q missing", c.b)
		}
		got := DistanceKm(ma.Point, mb.Point)
		if math.Abs(got.Float()-c.wantKm) > c.toleranceK {
			t.Errorf("distance %s-%s = %.0f km, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.toleranceK)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry and identity over random valid points.
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clamp(lat1, -90, 90), Lon: clamp(lon1, -180, 180)}
		b := Point{Lat: clamp(lat2, -90, 90), Lon: clamp(lon2, -180, 180)}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		if math.Abs(dab.Float()-dba.Float()) > 1e-6 {
			return false
		}
		if DistanceKm(a, a) > 1e-6 {
			return false
		}
		// Great-circle distance is bounded by half the circumference.
		return dab >= 0 && dab.Float() <= math.Pi*EarthRadiusKm.Float()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Mod(math.Abs(v), hi-lo) + lo
}

func TestPointValid(t *testing.T) {
	if !(Point{0, 0}).Valid() {
		t.Error("origin should be valid")
	}
	if (Point{91, 0}).Valid() {
		t.Error("lat 91 should be invalid")
	}
	if (Point{0, 181}).Valid() {
		t.Error("lon 181 should be invalid")
	}
	if (Point{math.NaN(), 0}).Valid() {
		t.Error("NaN lat should be invalid")
	}
}

func TestOffsetDistance(t *testing.T) {
	m, _ := FindMetro("chicago")
	for _, d := range []units.Kilometers{1, 50, 500, 3000} {
		for _, brg := range []float64{0, 45, 90, 180, 270} {
			p := m.Offset(d, brg)
			if !p.Valid() {
				t.Fatalf("Offset(%v,%v) produced invalid point %v", d, brg, p)
			}
			got := DistanceKm(m.Point, p)
			if math.Abs(got.Float()-d.Float()) > d.Float()*0.01+0.1 {
				t.Errorf("Offset(%v km, %v deg): actual distance %.2f km", d, brg, got)
			}
		}
	}
}

func TestOffsetCrossesAntimeridian(t *testing.T) {
	m := Metro{Point: Point{Lat: 0, Lon: 179.5}}
	p := m.Offset(200, 90)
	if !p.Valid() {
		t.Fatalf("offset across antimeridian produced invalid point %v", p)
	}
	if d := DistanceKm(m.Point, p); math.Abs(d.Float()-200) > 3 {
		t.Fatalf("antimeridian offset distance = %.1f, want ~200", d)
	}
}

func TestTargetsNearest(t *testing.T) {
	ny, _ := FindMetro("new-york")
	pts := []Point{}
	for _, name := range []string{"los-angeles", "chicago", "boston", "london"} {
		m, _ := FindMetro(name)
		pts = append(pts, m.Point)
	}
	ts := NewTargets(pts)
	idx, d := ts.Nearest(ny.Point)
	if idx != 2 {
		t.Fatalf("nearest to new-york = index %d, want 2 (boston)", idx)
	}
	if d < 100 || d > 500 {
		t.Fatalf("new-york to boston distance %.0f out of expected range", d)
	}
	var empty Targets
	if idx, d := empty.Nearest(ny.Point); idx != -1 || !math.IsInf(d.Float(), 1) {
		t.Fatal("Nearest on an empty set should be (-1, +Inf)")
	}
}

func TestTargetsRankInto(t *testing.T) {
	ny, _ := FindMetro("new-york")
	names := []string{"london", "boston", "chicago", "los-angeles"}
	pts := make([]Point, len(names))
	for i, n := range names {
		m, _ := FindMetro(n)
		pts[i] = m.Point
	}
	ts := NewTargets(pts)
	order := make([]int, len(pts))
	ts.RankInto(ny.Point, order)
	want := []int{1, 2, 3, 0} // boston, chicago, LA, london
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rank order = %v, want %v", order, want)
		}
	}
	// Property: distances are non-decreasing along the ranking.
	prev := units.Kilometers(-1)
	for _, idx := range order {
		d := DistanceKm(ny.Point, pts[idx])
		if d < prev {
			t.Fatal("RankInto output not sorted")
		}
		prev = d
	}
}

func TestWorldCatalog(t *testing.T) {
	ms := World()
	if len(ms) < 150 {
		t.Fatalf("catalog has %d metros, want >= 150", len(ms))
	}
	names := map[string]bool{}
	regions := map[Region]int{}
	for _, m := range ms {
		if names[m.Name] {
			t.Errorf("duplicate metro name %q", m.Name)
		}
		names[m.Name] = true
		if !m.Point.Valid() {
			t.Errorf("metro %q has invalid point %v", m.Name, m.Point)
		}
		if m.Weight <= 0 {
			t.Errorf("metro %q has non-positive weight", m.Name)
		}
		if m.Country == "" {
			t.Errorf("metro %q has empty country", m.Name)
		}
		regions[m.Region]++
	}
	for _, r := range []Region{RegionNorthAmerica, RegionEurope, RegionAsia,
		RegionSouthAmerica, RegionOceania, RegionAfrica} {
		if regions[r] < 5 {
			t.Errorf("region %s has only %d metros", r, regions[r])
		}
	}
}

func TestWorldReturnsCopy(t *testing.T) {
	a := World()
	a[0].Name = "mutated"
	b := World()
	if b[0].Name == "mutated" {
		t.Fatal("World returned a shared slice")
	}
}

func TestFindMetroMissing(t *testing.T) {
	if _, ok := FindMetro("atlantis"); ok {
		t.Fatal("FindMetro found a nonexistent metro")
	}
}

func TestGeoDBPerfect(t *testing.T) {
	db := PerfectDB()
	p := Point{40, -70}
	if got := db.Locate(1, p); got != p {
		t.Fatalf("perfect DB moved the point: %v", got)
	}
}

func TestGeoDBConsistentAndBounded(t *testing.T) {
	db := NewDB(99, 30, 0.02, 4000)
	truth := Point{48.86, 2.35}
	a := db.Locate(7, truth)
	b := db.Locate(7, truth)
	if a != b {
		t.Fatal("geolocation DB is not consistent per id")
	}
	// Across many ids, the median error should be near the configured value.
	var errs []float64
	for id := uint64(0); id < 2000; id++ {
		p := db.Locate(id, truth)
		errs = append(errs, DistanceKm(truth, p).Float())
	}
	med := median(errs)
	if med < 15 || med > 60 {
		t.Fatalf("median geolocation error %.1f km, want ~30", med)
	}
}

func TestGeoDBGrossErrors(t *testing.T) {
	db := NewDB(5, 30, 0.05, 5000)
	truth := Point{34, -118}
	gross := 0
	const n = 5000
	for id := uint64(0); id < n; id++ {
		if DistanceKm(truth, db.Locate(id, truth)) > 1500 {
			gross++
		}
	}
	frac := float64(gross) / n
	if frac < 0.01 || frac > 0.10 {
		t.Fatalf("gross error fraction %.3f, want near 0.05", frac)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkDistanceKm(b *testing.B) {
	p1 := Point{40.71, -74.01}
	p2 := Point{34.05, -118.24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DistanceKm(p1, p2)
	}
}

func BenchmarkTargetsRankInto(b *testing.B) {
	ts := NewTargets(catalogPoints())
	order := make([]int, ts.Len())
	p := Point{40.71, -74.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.RankInto(p, order)
	}
}
