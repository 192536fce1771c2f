package experiments

import (
	"encoding/binary"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/units"
)

// shardFrames streams one shard's days through a ShardObserver and
// returns the encoded per-day frames.
func shardFrames(t testing.TB, cfg sim.Config, w *sim.World, lo, hi int) [][]byte {
	t.Helper()
	obs, err := NewShardObserver(cfg, w, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, cfg.Days)
	err = sim.StreamShard(cfg, w, sim.ShardOpts{Lo: lo, Hi: hi}, func(d sim.DayResult) error {
		frames = append(frames, obs.AppendDay(d, nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestShardMergeMatchesStreamSuite is the distributed analysis pipeline's
// core identity: shard observers encoding per-day deltas, merged in
// (day, shard) order into a suite over a population-free analysis world,
// must render every passive-log report byte-identically to a suite that
// observed the whole stream in one process. A surge scenario keeps
// front-end switches and zero-query days crossing shard boundaries.
func TestShardMergeMatchesStreamSuite(t *testing.T) {
	sc, err := faults.ParseScenario("surge south-america day=3 for=3 qps=6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.SmallConfig(17)
	cfg.Scenario = &sc
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStreamSuite(cfg, w)
	if err := sim.StreamWorld(cfg, w, ref.Observe); err != nil {
		t.Fatal(err)
	}

	n := len(w.Population.Clients)
	a := n / 3
	bounds := [][2]int{{0, a}, {a, a + 3}, {a + 3, n}}
	frames := make([][][]byte, len(bounds)) // shard -> day -> delta
	for si, b := range bounds {
		frames[si] = shardFrames(t, cfg, w, b[0], b[1])
	}

	// The coordinator path: merge over a world with no population at all.
	aw, err := sim.BuildAnalysisWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewStreamSuite(cfg, aw)
	for day := 0; day < cfg.Days; day++ {
		for si, b := range bounds {
			if err := merged.MergeShardDay(day, b[0], b[1], frames[si][day]); err != nil {
				t.Fatalf("day %d shard %d: %v", day, si, err)
			}
		}
	}

	reports := []struct {
		name     string
		ref, got string
	}{
		{"fig4", ref.Figure4().Render(), merged.Figure4().Render()},
		{"catchments", ref.Catchments(10).Render(), merged.Catchments(10).Render()},
		{"tcp", ref.TCPDisruption().Render(), merged.TCPDisruption().Render()},
		{"loadshed", ref.LoadShedding(4).Render(), merged.LoadShedding(4).Render()},
		{"fig7", ref.Figure7().Render(), merged.Figure7().Render()},
		{"fig8", ref.Figure8().Render(), merged.Figure8().Render()},
	}
	for _, r := range reports {
		if r.ref != r.got {
			t.Errorf("%s report differs after shard merge:\n--- single-process ---\n%s\n--- merged ---\n%s",
				r.name, r.ref, r.got)
		}
	}
}

// TestMergeShardDayErrors pins the malformed-frame paths: nothing a
// worker sends should be able to panic the coordinator or make it
// over-allocate, and state a single process could never produce is
// rejected.
func TestMergeShardDayErrors(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	frames := shardFrames(t, cfg, w, 0, n)
	last := cfg.Days - 1

	fresh := func() *StreamSuite { return NewStreamSuite(cfg, w) }
	for day, f := range frames {
		if err := fresh().MergeShardDay(day, 0, n, f); err != nil {
			t.Fatalf("valid day-%d frame rejected: %v", day, err)
		}
	}
	// patch copies a frame and overwrites bytes at off; the last day's
	// frame is the header, then (switch days, total days) as uint32 pairs
	// per client, then Figure 7's firstChange words and active bytes.
	patch := func(f []byte, off int, b ...byte) []byte {
		f = append([]byte{}, f...)
		copy(f[off:], b)
		return f
	}
	const hdr = 1 + 3*8
	tcpAt, fcAt, activeAt := hdr, hdr+8*n, hdr+12*n
	// A day-0 frame whose catchment count makes 24·count wrap to 8.
	huge := append([]byte{}, frames[1]...)
	huge[1] = 0 // day 1's bare header, relabeled day 0
	for range 4 {
		huge = new(stats.ECDFBuilder[units.Kilometers]).Encode(huge)
	}
	huge = binary.LittleEndian.AppendUint64(huge, 768614336404564651)
	huge = append(huge, make([]byte, 8)...)

	cases := []struct {
		name        string
		day, lo, hi int
		data        []byte
	}{
		{"empty", 0, 0, n, nil},
		{"bad magic", 0, 0, n, append([]byte{0x00}, frames[0][1:]...)},
		{"wrong day", 1, 0, n, frames[0]},
		{"wrong range", 0, 0, n - 1, frames[0]},
		{"truncated", 0, 0, n, frames[0][:len(frames[0])/2]},
		{"trailing bytes", 0, 0, n, append(append([]byte{}, frames[0]...), 0xAB)},
		{"middle day with state", 1, 0, n, append(append([]byte{}, frames[1]...), 0)},
		{"catchment count overflow", 0, 0, n, huge},
		{"truncated last day", last, 0, n, frames[last][:len(frames[last])-1]},
		{"total days != Days", last, 0, n, patch(frames[last], tcpAt+4, byte(cfg.Days+1))},
		{"switch days > total days", last, 0, n, patch(frames[last], tcpAt, byte(cfg.Days+1))},
		{"firstChange below -1", last, 0, n, patch(frames[last], fcAt, 0xFE, 0xFF, 0xFF, 0xFF)},
		{"firstChange past window", last, 0, n, patch(frames[last], fcAt, figure7Week, 0, 0, 0)},
		{"active byte not 0 or 1", last, 0, n, patch(frames[last], activeAt, 2)},
	}
	for _, c := range cases {
		if err := fresh().MergeShardDay(c.day, c.lo, c.hi, c.data); err == nil {
			t.Errorf("%s: malformed frame accepted", c.name)
		}
	}
}

// FuzzMergeShardDay feeds arbitrary frames to the coordinator's merge,
// seeded with real day-0, middle-day and last-day frames: it must return
// an error or merge, never panic.
func FuzzMergeShardDay(f *testing.F) {
	cfg := testutil.TinyConfig(5)
	cfg.Prefixes = 40
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		f.Fatal(err)
	}
	n := len(w.Population.Clients)
	frames := shardFrames(f, cfg, w, 0, n)
	for _, day := range []int{0, 2, cfg.Days - 1} {
		f.Add(day, frames[day])
	}
	f.Fuzz(func(t *testing.T, day int, data []byte) {
		_ = NewStreamSuite(cfg, w).MergeShardDay(day, 0, n, data)
	})
}

// TestShardObserverRejectsBadRange pins the constructor validation.
func TestShardObserverRejectsBadRange(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	for _, b := range [][2]int{{-1, 2}, {4, 2}, {0, n + 1}} {
		if _, err := NewShardObserver(cfg, w, b[0], b[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", b[0], b[1])
		}
	}
}
