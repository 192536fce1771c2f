package main

import (
	"bytes"
	"fmt"
	"strings"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
)

// workload is one user mode of the repository: the command a user runs,
// the simulation config that command builds from its flags, and the
// in-process reference its outputs must match.
type workload struct {
	name string
	bin  string // "anycastsim" or "repro", from the build directory
	// args are the command's arguments; out is its output directory.
	args func(seed uint64, out string) []string
	// config is the sim.Config the command derives from those arguments.
	config func(seed uint64) (sim.Config, error)
	// setup performs what every run of the command pays before its first
	// simulated day: the world build.
	setup func(cfg sim.Config) error
	// outputs digests what one execution produced.
	outputs func(dir string, stdout []byte) (map[string]string, int64, error)
	// reference computes, in this process, the digests outputs must match.
	reference func(cfg sim.Config) (map[string]string, error)
}

const (
	streamPrefixes = 200000
	streamDays     = 10
	surgeScenario  = "surge south-america day=2 for=5 qps=15"
	// fleetShards is flashcrowd-dist's worker count: one per core here.
	fleetShards = 2
	// reproPrefixes halves repro's default population (30 days are
	// kept), so a run fits an execution and its in-process reference.
	reproPrefixes = 4000
)

var workloads = []*workload{
	{
		name: "passive-stream",
		bin:  "anycastsim",
		args: func(seed uint64, out string) []string {
			return []string{"-seed", fmt.Sprint(seed), "-prefixes", fmt.Sprint(streamPrefixes),
				"-days", fmt.Sprint(streamDays), "-beaconrate", "0", "-reports", "-out", out}
		},
		config:    func(seed uint64) (sim.Config, error) { return passiveConfig(seed), nil },
		setup:     buildWorld,
		outputs:   dirOutputs,
		reference: streamReference,
	},
	{
		name: "repro",
		bin:  "repro",
		args: func(seed uint64, _ string) []string {
			return []string{"-seed", fmt.Sprint(seed), "-prefixes", fmt.Sprint(reproPrefixes), "-q"}
		},
		config:    func(seed uint64) (sim.Config, error) { return reproConfig(seed), nil },
		setup:     buildWorld,
		outputs:   headlineOutputs,
		reference: reproReference,
	},
	{
		name: "flashcrowd-dist",
		bin:  "anycastsim",
		args: func(seed uint64, out string) []string {
			return []string{"-seed", fmt.Sprint(seed), "-prefixes", fmt.Sprint(streamPrefixes),
				"-days", fmt.Sprint(streamDays), "-beaconrate", "0", "-distribute", fmt.Sprint(fleetShards),
				"-scenario", surgeScenario, "-loadpolicy", "fastroute", "-out", out}
		},
		config: flashConfig,
		setup: func(cfg sim.Config) error {
			lo, hi := largestShard(cfg.Prefixes, fleetShards)
			_, err := sim.BuildShardWorld(cfg, lo, hi)
			return err
		},
		outputs:   dirOutputs,
		reference: streamReference,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// passiveConfig mirrors `anycastsim -prefixes 200000 -days 10 -beaconrate 0`.
func passiveConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(seed)
	cfg.Prefixes = streamPrefixes
	cfg.Days = streamDays
	cfg.BeaconSampleRate = 0
	return cfg
}

// reproConfig mirrors `repro -prefixes 4000`.
func reproConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(seed)
	cfg.Prefixes = reproPrefixes
	return cfg
}

// flashConfig adds the flash crowd and the FastRoute policy.
func flashConfig(seed uint64) (sim.Config, error) {
	cfg := passiveConfig(seed)
	sc, err := faults.ParseScenario(surgeScenario)
	if err != nil {
		return cfg, err
	}
	p, err := load.ParsePolicy("fastroute")
	if err != nil {
		return cfg, err
	}
	cfg.Scenario = &sc
	cfg.LoadManager = &load.ManagerConfig{Policy: p}
	return cfg, nil
}

// largestShard returns the widest of the contiguous client ranges a
// fleet of the given size splits n clients into (the first on ties).
func largestShard(n, shards int) (lo, hi int) {
	for i := 0; i < shards; i++ {
		l, h := i*n/shards, (i+1)*n/shards
		if h-l > hi-lo {
			lo, hi = l, h
		}
	}
	return lo, hi
}

func buildWorld(cfg sim.Config) error {
	_, err := sim.BuildWorld(cfg)
	return err
}

func dirOutputs(dir string, _ []byte) (map[string]string, int64, error) {
	return digestDir(dir)
}

func headlineOutputs(_ string, stdout []byte) (map[string]string, int64, error) {
	h, err := parseHeadlines(stdout)
	if err != nil {
		return nil, 0, err
	}
	return map[string]string{"headlines": digestBytes(h)}, int64(len(stdout)), nil
}

// streamReference runs the command's config through sim.StreamWorld and
// a StreamSuite in this process and digests reports.txt, plus
// utilization.csv for a load-managed config.
func streamReference(cfg sim.Config) (map[string]string, error) {
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	suite := experiments.NewStreamSuite(cfg, w)
	var util bytes.Buffer
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		appendUtilization(&util, w, d.Day, d.Utilization)
		return suite.Observe(d)
	})
	if err != nil {
		return nil, err
	}
	out := map[string]string{"reports.txt": digestBytes(renderReports(suite))}
	if cfg.LoadManager != nil {
		out["utilization.csv"] = digestBytes(append([]byte(utilizationHeader), util.Bytes()...))
	}
	return out, nil
}

// reproReference runs `repro -q`'s pipeline in this process.
func reproReference(cfg sim.Config) (map[string]string, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return map[string]string{"headlines": digestBytes(canonicalHeadlines(experiments.NewSuite(res).All()))}, nil
}

// renderReports is the reports.txt anycastsim writes from a stream suite.
func renderReports(s *experiments.StreamSuite) []byte {
	var b bytes.Buffer
	for _, r := range []experiments.Report{
		s.Figure4(),
		s.Figure7(),
		s.Figure8(),
		s.Catchments(10),
		s.TCPDisruption(),
		s.LoadShedding(4),
	} {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

const utilizationHeader = "day,site,metro,queries,capacity,utilization,shed_frac,withdrawn\n"

// appendUtilization writes one day's rows of anycastsim's utilization.csv.
func appendUtilization(b *bytes.Buffer, w *sim.World, day int, units []sim.SiteUtil) {
	for _, u := range units {
		fmt.Fprintf(b, "%d,%d,%s,%.0f,%.0f,%.4f,%.4f,%t\n",
			day, u.Site, w.Deployment.Backbone.Site(u.Site).Metro.Name,
			u.Queries, u.Capacity, u.Utilization(), u.ShedFrac, u.Withdrawn)
	}
}

// canonicalHeadlines writes reports' headlines one per line as
// id<TAB>name<TAB>paper<TAB>measured, the form parseHeadlines reduces
// `repro -q` output to.
func canonicalHeadlines(reports []experiments.Report) []byte {
	var b bytes.Buffer
	for _, r := range reports {
		for _, h := range r.Lines {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", r.ID,
				strings.TrimSpace(h.Name), strings.TrimSpace(h.Paper), strings.TrimSpace(h.Measured))
		}
	}
	return b.Bytes()
}

// parseHeadlines reduces `repro -q` output to canonicalHeadlines form:
// "[id]" lines open a report, indented lines are its headlines, and the
// timing line that opens the output is skipped.
func parseHeadlines(out []byte) ([]byte, error) {
	var b bytes.Buffer
	id := ""
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(line, "simulated "):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			id = line[1 : len(line)-1]
		case strings.HasPrefix(line, "  ") && id != "":
			name, rest, ok1 := strings.Cut(line, " paper: ")
			paper, measured, ok2 := strings.Cut(rest, " measured: ")
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("unparsable headline %q", line)
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", id,
				strings.TrimSpace(name), strings.TrimSpace(paper), strings.TrimSpace(measured))
		default:
			return nil, fmt.Errorf("unexpected output line %q", line)
		}
	}
	if b.Len() == 0 {
		return nil, fmt.Errorf("no headlines in %d bytes of output", len(out))
	}
	return b.Bytes(), nil
}
