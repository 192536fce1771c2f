package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.sha256")

const digestFile = "testdata/outputs.sha256"

// TestOutputDigests pins every byte anycastsim writes: the per-record
// CSVs (beacons, passive log, clients), the deployment table, the
// utilization table and the online reports, for a plain run with beacons
// on and for a FastRoute-managed surge. A change to the simulation or to
// how a row is formatted moves a digest. Run
// `go test ./cmd/anycastsim -run OutputDigests -update` after an
// intentional output change.
func TestOutputDigests(t *testing.T) {
	runs := []struct {
		name       string
		scenario   string
		loadpolicy string
	}{
		{name: "plain", loadpolicy: "off"},
		{name: "fastroute", scenario: "surge south-america day=1 for=2 qps=15", loadpolicy: "fastroute"},
	}
	got := map[string]string{}
	for _, r := range runs {
		dir := t.TempDir()
		if err := run(1, 2000, 3, dir, r.scenario, r.loadpolicy, true, -1); err != nil {
			t.Fatalf("%s run: %v", r.name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[r.name+"/"+e.Name()] = hex.EncodeToString(sum[:])
		}
	}
	if *update {
		writeDigests(t, got)
		return
	}
	want := readDigests(t)
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], sum)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not pinned in %s", name, digestFile)
		}
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("missing digests (run with -update to create): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeDigests writes the sums in sha256sum's format, sorted by name.
func writeDigests(t *testing.T, sums map[string]string) {
	t.Helper()
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", sums[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRowBuildersMatchFmt checks the strconv row builders against the fmt
// formats they replace on values the digest runs never produce: negative
// zero, infinities, NaN, rounding halves, extreme IDs and invalid sites.
func TestRowBuildersMatchFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.4, 123.45675, -179.99995, 1e21,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i, f := range floats {
		rtt := units.Millis(f)
		m := beacon.Measurement{
			QueryID: math.MaxUint64 - uint64(i), ClientID: uint64(i), Region: geo.RegionEurope, LDNS: -1,
			Anycast: beacon.TargetSample{Site: -1, RTTms: rtt},
			Unicast: [3]beacon.TargetSample{{Site: 3, RTTms: rtt}, {Site: 0, RTTms: -rtt}, {Site: 1 << 40, RTTms: 0}},
		}
		want := fmt.Sprintf("%d,%d,%d,%s,%d,%d,%.0f,%d,%.0f,%d,%.0f,%d,%.0f\n",
			-i, m.QueryID, m.ClientID, m.Region, m.LDNS,
			m.Anycast.Site, m.Anycast.RTTms,
			m.Unicast[0].Site, m.Unicast[0].RTTms,
			m.Unicast[1].Site, m.Unicast[1].RTTms,
			m.Unicast[2].Site, m.Unicast[2].RTTms)
		if got := string(appendBeaconRow(nil, -i, m)); got != want {
			t.Errorf("beacon row %q, fmt %q", got, want)
		}

		r := logs.DayRecord{ClientID: math.MaxUint64, Day: i, FrontEnd: -1, Switched: i%2 == 0, PrevFrontEnd: 7, Queries: -i}
		want = fmt.Sprintf("%d,%d,%d,%t,%d,%d\n", r.Day, r.ClientID, r.FrontEnd, r.Switched, r.PrevFrontEnd, r.Queries)
		if got := string(appendPassiveRow(nil, r)); got != want {
			t.Errorf("passive row %q, fmt %q", got, want)
		}

		c := clients.Client{
			ID: uint64(i), Prefix: netaddr.Prefix24(0xFF00FF - i), Point: geo.Point{Lat: f, Lon: -f},
			Metro: "sao-paulo", Region: geo.RegionSouthAmerica, Country: "BR", ISP: -3, Volume: f,
		}
		want = fmt.Sprintf("%d,%s,%.4f,%.4f,%s,%s,%s,%d,%.4f\n",
			c.ID, c.Prefix, c.Point.Lat, c.Point.Lon, c.Metro, c.Region, c.Country, c.ISP, c.Volume)
		if got := string(appendClientRow(nil, c)); got != want {
			t.Errorf("client row %q, fmt %q", got, want)
		}
	}
}
