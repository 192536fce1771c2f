package sim_test

import (
	"errors"
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

func TestStreamMatchesRun(t *testing.T) {
	full := testutil.SmallResult(t)
	cfg := full.Cfg
	day := 0
	err := sim.Stream(cfg, func(d sim.DayResult) error {
		if d.Day != day {
			t.Fatalf("days out of order: got %d want %d", d.Day, day)
		}
		if len(d.Beacons) != len(full.Beacons[day]) {
			t.Fatalf("day %d beacon count %d != run's %d", day, len(d.Beacons), len(full.Beacons[day]))
		}
		for i := range d.Beacons {
			if d.Beacons[i] != full.Beacons[day][i] {
				t.Fatalf("day %d measurement %d differs between Stream and Run", day, i)
			}
		}
		if len(d.Passive) != cfg.Prefixes {
			t.Fatalf("day %d passive records = %d, want %d", day, len(d.Passive), cfg.Prefixes)
		}
		day++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if day != cfg.Days {
		t.Fatalf("stream delivered %d days, want %d", day, cfg.Days)
	}
}

func TestStreamPassiveMatchesRun(t *testing.T) {
	full := testutil.SmallResult(t)
	// Index run's passive records by (client, day).
	type key struct {
		client uint64
		day    int
	}
	want := map[key]int{}
	for i := range full.Passive.Len() {
		r := full.Passive.At(i)
		want[key{r.ClientID, r.Day}] = r.Queries
	}
	err := sim.Stream(full.Cfg, func(d sim.DayResult) error {
		for _, r := range d.Passive {
			if q, ok := want[key{r.ClientID, r.Day}]; !ok || q != r.Queries {
				t.Fatalf("passive record mismatch for client %d day %d", r.ClientID, r.Day)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamStopsOnError(t *testing.T) {
	cfg := testutil.SmallConfig(23)
	sentinel := errors.New("stop")
	calls := 0
	err := sim.Stream(cfg, func(d sim.DayResult) error {
		calls++
		if d.Day == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("stream continued after error: %d calls", calls)
	}
}

func TestStreamNilFn(t *testing.T) {
	if err := sim.Stream(testutil.SmallConfig(24), nil); err == nil {
		t.Fatal("nil fn should fail")
	}
}

// BenchmarkStreamWorld measures the streaming hot path end to end —
// BuildWorld excluded, mirroring BenchmarkRunWorld — on DefaultConfig at
// a reduced prefix count. Its B/op is the per-run cost of the reused day
// buffers plus the per-client-day simulation work; the CI gate pins it.
func BenchmarkStreamWorld(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Prefixes = 1000
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beacons := 0
		err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			beacons += len(d.Beacons)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if beacons == 0 {
			b.Fatal("no beacons")
		}
	}
}

func BenchmarkStreamDay(b *testing.B) {
	cfg := testutil.SmallConfig(25)
	cfg.Days = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sim.Stream(cfg, func(sim.DayResult) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
