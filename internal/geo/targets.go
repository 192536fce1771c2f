package geo

import (
	"math"

	"anycastcdn/internal/units"
)

// Targets is a fixed set of points prepared for repeated nearest-point and
// ranking queries — the peering sites every client ranks, the front-ends
// Figure 4 measures against, the public resolvers. Each target's cos(lat)
// is computed once here; a query computes its origin's once, then pays
// two sines per target and no sqrt or asin.
//
// Answers are exactly those of DistanceKm with ties broken by index:
// queries order targets by the haversine term h, which the distance is a
// monotone function of, and fall back to exact kilometers wherever two h
// values are close enough for rounding in sqrt and asin to matter (see
// tieWindow).
type Targets struct {
	pts    []Point
	cosLat []float64
}

// NewTargets prepares pts for queries. The slice is copied.
func NewTargets(pts []Point) Targets {
	t := Targets{pts: append([]Point(nil), pts...), cosLat: make([]float64, len(pts))}
	for i, p := range pts {
		t.cosLat[i] = math.Cos(p.Lat * degToRad)
	}
	return t
}

// Len returns the number of targets.
func (t *Targets) Len() int { return len(t.pts) }

// Point returns target i.
func (t *Targets) Point(i int) Point { return t.pts[i] }

// tieWindow bounds where ordering by h may disagree with ordering by
// kilometers. sqrt is correctly rounded and so monotone; math.Asin is
// accurate to a few ulps but not guaranteed monotone at that scale. Two
// terms h1 < h2 can therefore map to kilometers in the wrong order (or to
// equal kilometers) only if h2 is within a few ulps — about 1e-15
// relative — of h1. Any pair closer than a relative 1e-9 is resolved on
// exact kilometers; every pair farther apart orders the same by h and
// by km, with many orders of magnitude to spare.
const tieWindow = 1e-9

// near reports whether hi lies inside the tie window above lo (lo <= hi).
// h is 0 only at the origin itself, where the window is the single point
// 0: DistanceKm is exactly 0 there and positive everywhere else.
func near(lo, hi float64) bool { return hi <= lo*(1+tieWindow) }

// Nearest returns the index of the target nearest to p and its distance
// — the lowest index among equally distant targets — or (-1, +Inf) for
// an empty set.
//
//perf:hotpath
func (t *Targets) Nearest(p Point) (int, units.Kilometers) {
	cosP := math.Cos(p.Lat * degToRad)
	best, bestH, nextH := -1, math.Inf(1), math.Inf(1)
	for i, q := range t.pts {
		h := haversine(p, q, cosP, t.cosLat[i])
		if h < bestH {
			best, bestH, nextH = i, h, bestH
		} else if h < nextH {
			nextH = h
		}
	}
	if best < 0 {
		return -1, units.Kilometers(math.Inf(1))
	}
	bestKm := kmFromHaversine(bestH)
	if !near(bestH, nextH) {
		return best, bestKm
	}
	// Another target sits inside the tie window: every target that could
	// be nearest by (km, index) is in it, so resolve there on kilometers.
	for i, q := range t.pts {
		if i == best {
			continue
		}
		h := haversine(p, q, cosP, t.cosLat[i])
		if !near(bestH, h) {
			continue
		}
		if km := kmFromHaversine(h); km < bestKm || (km == bestKm && i < best) {
			best, bestKm = i, km
		}
	}
	return best, bestKm
}

// rankStackTargets bounds the h scratch RankInto keeps on the stack;
// larger target sets fall back to the heap.
const rankStackTargets = 256

// RankInto writes the indices of the targets into out (len(out) ==
// t.Len()), ordered by increasing distance from p with ties broken by
// index: the order sorting by (DistanceKm, index) gives.
//
//perf:hotpath
func (t *Targets) RankInto(p Point, out []int) {
	n := len(t.pts)
	var hbuf [rankStackTargets]float64
	var hs []float64
	if n <= len(hbuf) {
		hs = hbuf[:n]
	} else {
		hs = make([]float64, n)
	}
	cosP := math.Cos(p.Lat * degToRad)
	// Insertion sort on h as the terms arrive: allocation-free and fast at
	// deployment scale (tens of sites). Indices arrive in increasing order
	// and only a strictly larger h moves, so equal terms stay in index
	// order.
	for i, q := range t.pts {
		h := haversine(p, q, cosP, t.cosLat[i])
		j := i - 1
		for j >= 0 && hs[j] > h {
			out[j+1], hs[j+1] = out[j], hs[j]
			j--
		}
		out[j+1], hs[j+1] = i, h
	}
	// Re-sort each maximal run of adjacent terms inside the tie window on
	// exact (km, index). Between runs h and km agree, so the whole order
	// is the (km, index) order.
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && near(hs[hi-1], hs[hi]) {
			hi++
		}
		if hi-lo > 1 {
			sortRunByKm(out[lo:hi], hs[lo:hi])
		}
		lo = hi
	}
}

// sortRunByKm replaces a run's haversine terms with kilometers and
// insertion-sorts it on (km, index).
func sortRunByKm(idx []int, hs []float64) {
	for k, h := range hs {
		hs[k] = kmFromHaversine(h).Float()
	}
	for i := 1; i < len(idx); i++ {
		id, d := idx[i], hs[i]
		j := i - 1
		for j >= 0 && (hs[j] > d || (hs[j] == d && idx[j] > id)) {
			idx[j+1], hs[j+1] = idx[j], hs[j]
			j--
		}
		idx[j+1], hs[j+1] = id, d
	}
}
