package stats

import (
	"math"
	"testing"

	"anycastcdn/internal/xrand"
)

// randBuilder fills a builder with n samples drawn from an xrand
// substream: mixed magnitudes, duplicates, and occasional zero weights —
// the shapes the experiment aggregators actually produce.
func randBuilder(rs *xrand.Stream, n int) *ECDFBuilder[float64] {
	var b ECDFBuilder[float64]
	for i := 0; i < n; i++ {
		x := math.Exp(10 * (rs.Float64() - 0.5))
		if rs.Float64() < 0.2 {
			x = float64(rs.Intn(8)) // force duplicate sample values
		}
		b.AddWeighted(x, rs.Float64()*3)
	}
	return &b
}

func buildersEqual(t *testing.T, a, b *ECDFBuilder[float64]) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.xs {
		if math.Float64bits(float64(a.xs[i])) != math.Float64bits(float64(b.xs[i])) ||
			math.Float64bits(a.ws[i]) != math.Float64bits(b.ws[i]) {
			t.Fatalf("sample %d differs: (%v, %v) vs (%v, %v)", i, a.xs[i], a.ws[i], b.xs[i], b.ws[i])
		}
	}
}

// TestECDFBuilderEncodeRoundTrip pins bit-exact decode(encode(b)) == b,
// including the empty builder, and that Decode consumes exactly the
// encoded bytes (so encodings concatenate into frames).
func TestECDFBuilderEncodeRoundTrip(t *testing.T) {
	rs := xrand.New(101)
	for _, n := range []int{0, 1, 7, 1000} {
		b := randBuilder(rs, n)
		enc := b.Encode(nil)
		enc = append(enc, 0xFF, 0xFE) // trailing bytes must survive untouched
		var got ECDFBuilder[float64]
		rest, err := got.Decode(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 2 || rest[0] != 0xFF {
			t.Fatalf("n=%d: Decode consumed the wrong byte count (rest %d)", n, len(rest))
		}
		buildersEqual(t, b, &got)
	}
}

// TestECDFBuilderMergeEncodedMatchesMerge pins the wire merge against the
// in-process one: folding encoded partials in a fixed order must leave
// the builder byte-identical to Merge in the same order, and the
// finalized ECDF quantiles must agree bitwise.
func TestECDFBuilderMergeEncodedMatchesMerge(t *testing.T) {
	rs := xrand.New(202)
	parts := []*ECDFBuilder[float64]{
		randBuilder(rs, 100), randBuilder(rs, 0), randBuilder(rs, 333), randBuilder(rs, 50),
	}
	var direct, wired ECDFBuilder[float64]
	for _, p := range parts {
		direct.Merge(p)
		rest, err := wired.MergeEncoded(p.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left over", len(rest))
		}
	}
	buildersEqual(t, &direct, &wired)
	de, err := direct.ECDF()
	if err != nil {
		t.Fatal(err)
	}
	we, err := wired.ECDF()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if math.Float64bits(de.Quantile(q)) != math.Float64bits(we.Quantile(q)) {
			t.Fatalf("quantile %v differs: %v vs %v", q, de.Quantile(q), we.Quantile(q))
		}
	}
}

// TestECDFBuilderMergeAssociative is the property the shard-order merge
// depends on: (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) leave identical builders —
// Merge is concatenation, so association cannot matter as long as the
// left-to-right order of the parts is fixed.
func TestECDFBuilderMergeAssociative(t *testing.T) {
	rs := xrand.New(303)
	for trial := 0; trial < 20; trial++ {
		a1 := randBuilder(rs, rs.Intn(200))
		b1 := randBuilder(rs, rs.Intn(200))
		c1 := randBuilder(rs, rs.Intn(200))
		a2 := &ECDFBuilder[float64]{}
		a2.Merge(a1)
		b2 := &ECDFBuilder[float64]{}
		b2.Merge(b1)

		// left: ((a+b)+c) into a fresh accumulator.
		var left ECDFBuilder[float64]
		left.Merge(a1)
		left.Merge(b1)
		left.Merge(c1)
		// right: a + (b+c).
		var bc ECDFBuilder[float64]
		bc.Merge(b2)
		bc.Merge(c1)
		var right ECDFBuilder[float64]
		right.Merge(a2)
		right.Merge(&bc)
		buildersEqual(t, &left, &right)
	}
}

// TestECDFBuilderDecodeErrors covers the malformed-input paths: bad
// magic, truncated header, truncated payload.
func TestECDFBuilderDecodeErrors(t *testing.T) {
	var b ECDFBuilder[float64]
	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         {0x00, 1, 2, 3},
		"truncated header":  {ecdfMagic, 1, 2},
		"truncated payload": append((&ECDFBuilder[float64]{xs: []float64{1}, ws: []float64{1}}).Encode(nil)[:12], 0),
		// 16·2^60 wraps to 0: the count must not pass the length check.
		"count overflow": append([]byte{ecdfMagic}, 0, 0, 0, 0, 0, 0, 0, 0x10),
	}
	for name, data := range cases {
		if _, err := b.Decode(data); err == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		}
	}
}

func randSketch(t *testing.T, rs *xrand.Stream, n int) *QuantileSketch[float64] {
	t.Helper()
	s, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.AddWeighted(math.Exp(12*(rs.Float64()-0.4)), rs.Float64()*2)
	}
	return s
}

func sketchesEqual(t *testing.T, a, b *QuantileSketch[float64]) {
	t.Helper()
	if a.n != b.n || math.Float64bits(a.total) != math.Float64bits(b.total) {
		t.Fatalf("counts differ: (n=%d total=%v) vs (n=%d total=%v)", a.n, a.total, b.n, b.total)
	}
	for i := range a.bins {
		if math.Float64bits(a.bins[i]) != math.Float64bits(b.bins[i]) {
			t.Fatalf("bin %d differs: %v vs %v", i, a.bins[i], b.bins[i])
		}
	}
}

// TestSketchEncodeRoundTrip pins bit-exact decode(encode(s)) == s and
// exact byte consumption.
func TestSketchEncodeRoundTrip(t *testing.T) {
	rs := xrand.New(404)
	for _, n := range []int{0, 1, 5000} {
		s := randSketch(t, rs, n)
		enc := s.Encode(nil)
		got, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := got.Decode(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, len(rest))
		}
		sketchesEqual(t, s, got)
	}
}

// TestSketchMergeCommutativeAssociative: unweighted sketches carry
// integer-valued bins, so the encoded merge must be exactly commutative
// AND associative — any fold order over the same partials yields
// bit-identical bins. This is what lets the coordinator fold per-day
// sketch deltas without caring which worker's frame it read first.
func TestSketchMergeCommutativeAssociative(t *testing.T) {
	rs := xrand.New(505)
	mk := func(n int) *QuantileSketch[float64] {
		s, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Add(math.Exp(12 * (rs.Float64() - 0.4))) // weight 1: integer bins
		}
		return s
	}
	parts := []*QuantileSketch[float64]{mk(100), mk(1), mk(777), mk(0), mk(42)}
	fold := func(order []int) *QuantileSketch[float64] {
		out, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
		for _, i := range order {
			if _, err := out.MergeEncoded(parts[i].Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ref := fold([]int{0, 1, 2, 3, 4})
	for trial := 0; trial < 10; trial++ {
		order := []int{0, 1, 2, 3, 4}
		for i := len(order) - 1; i > 0; i-- { // xrand-seeded shuffle
			j := rs.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		sketchesEqual(t, ref, fold(order))
	}
	// Associativity with pre-merged groups: (0+1) + (2+3+4).
	g1, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	g1.MergeEncoded(parts[0].Encode(nil))
	g1.MergeEncoded(parts[1].Encode(nil))
	g2, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	g2.MergeEncoded(parts[2].Encode(nil))
	g2.MergeEncoded(parts[3].Encode(nil))
	g2.MergeEncoded(parts[4].Encode(nil))
	grouped, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	grouped.MergeEncoded(g1.Encode(nil))
	grouped.MergeEncoded(g2.Encode(nil))
	sketchesEqual(t, ref, grouped)
}

// TestSketchEncodedLayoutMismatch covers the mismatched-bin error paths:
// different bin count, different range, linear-vs-log — for Decode,
// MergeEncoded, and the in-process Merge they mirror.
func TestSketchEncodedLayoutMismatch(t *testing.T) {
	base, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	base.Add(3)
	others := []*QuantileSketch[float64]{}
	if s, err := NewLogQuantileSketch[float64](0.5, 4096, 32); err == nil {
		others = append(others, s) // different bin count
	}
	if s, err := NewLogQuantileSketch[float64](1, 4096, 64); err == nil {
		others = append(others, s) // different lo
	}
	if s, err := NewLinearQuantileSketch[float64](0.5, 4096, 64); err == nil {
		others = append(others, s) // linear vs log
	}
	if len(others) != 3 {
		t.Fatal("failed to build mismatched sketches")
	}
	enc := base.Encode(nil)
	for i, o := range others {
		if _, err := o.Decode(enc); err == nil {
			t.Errorf("case %d: Decode accepted a mismatched layout", i)
		}
		if _, err := o.MergeEncoded(enc); err == nil {
			t.Errorf("case %d: MergeEncoded accepted a mismatched layout", i)
		}
		if err := o.Merge(base); err == nil {
			t.Errorf("case %d: Merge accepted a mismatched layout", i)
		}
	}
	// Truncation and magic errors.
	if _, err := base.Decode(enc[:10]); err == nil {
		t.Error("Decode accepted a truncated sketch")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0x00
	if _, err := base.Decode(bad); err == nil {
		t.Error("Decode accepted a bad magic byte")
	}
}

// TestSketchMergeEncodedSteadyStateAllocs pins the coordinator merge-loop
// contract: folding an encoded sketch into an existing one allocates
// nothing.
func TestSketchMergeEncodedSteadyStateAllocs(t *testing.T) {
	rs := xrand.New(606)
	part := randSketch(t, rs, 500)
	enc := part.Encode(nil)
	acc, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := acc.MergeEncoded(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MergeEncoded allocates %v per op, want 0", allocs)
	}
}

// FuzzECDFBuilderMergeEncoded: any input merges or errors; nothing
// panics, and a successful merge consumes 16 bytes per sample.
func FuzzECDFBuilderMergeEncoded(f *testing.F) {
	f.Add(randBuilder(xrand.New(606), 5).Encode(nil))
	f.Add((&ECDFBuilder[float64]{}).Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b ECDFBuilder[float64]
		rest, err := b.MergeEncoded(data)
		if err == nil && 9+16*b.Len()+len(rest) != len(data) {
			t.Fatalf("%d samples and %d spare bytes from %d bytes", b.Len(), len(rest), len(data))
		}
	})
}

// FuzzQuantileSketchMergeEncoded: any input merges or errors against a
// fixed layout; nothing panics.
func FuzzQuantileSketchMergeEncoded(f *testing.F) {
	mk := func() *QuantileSketch[float64] {
		s, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	seed := mk()
	seed.Add(3)
	seed.Add(900)
	f.Add(seed.Encode(nil))
	f.Add(mk().Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = mk().MergeEncoded(data)
	})
}
