package sim_test

import (
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestReplayIdentical is the invariant the replaysafety analyzer
// (internal/analysis) exists to protect: two runs with the same seed must
// be bit-for-bit identical — beacons, passive logs, and day-by-day anycast
// assignments — regardless of the parallel worker schedule.
func TestReplayIdentical(t *testing.T) {
	cfg := testutil.SmallConfig(21)
	cfg.Workers = 4
	a, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if a.TotalBeacons() != b.TotalBeacons() {
		t.Fatalf("beacon totals differ across replays: %d vs %d", a.TotalBeacons(), b.TotalBeacons())
	}
	for day := range a.Beacons {
		if len(a.Beacons[day]) != len(b.Beacons[day]) {
			t.Fatalf("day %d beacon count differs across replays", day)
		}
		for i := range a.Beacons[day] {
			if a.Beacons[day][i] != b.Beacons[day][i] {
				t.Fatalf("day %d beacon %d differs across replays:\n%+v\nvs\n%+v",
					day, i, a.Beacons[day][i], b.Beacons[day][i])
			}
		}
	}

	if a.Passive.Len() != b.Passive.Len() {
		t.Fatalf("passive log lengths differ across replays: %d vs %d", a.Passive.Len(), b.Passive.Len())
	}
	for i := 0; i < a.Passive.Len(); i++ {
		if a.Passive.At(i) != b.Passive.At(i) {
			t.Fatalf("passive record %d differs across replays:\n%+v\nvs\n%+v", i, a.Passive.At(i), b.Passive.At(i))
		}
	}

	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("assignment counts differ across replays")
	}
	for c := range a.Assignments {
		for d := range a.Assignments[c] {
			if a.Assignments[c][d] != b.Assignments[c][d] {
				t.Fatalf("assignment for client %d day %d differs across replays", c, d)
			}
		}
	}
}
