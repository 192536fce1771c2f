package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/core"
	"anycastcdn/internal/distsim"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

const (
	// beaconProbeRuns is the fixed sample beacon.run_ns times.
	beaconProbeRuns = 100000
	// coreProbeDays is how many train-on-day-d, evaluate-on-day-d+1
	// rounds the prediction probe runs per grouping.
	coreProbeDays = 5
	// workerStall bounds one protocol step of the traced distributed run.
	workerStall = 2 * time.Minute
)

// Sinks keep the compiler from discarding probe calls.
var (
	sinkSite topology.SiteID
	sinkMs   float64
)

// tracePass is the -trace 1 run. It calls each layer's public functions
// in-process, at the scale of the workload that exercises that layer,
// and records a span around every call; the per-layer metrics are read
// off the spans. Every traced run covers every layer, so each run emits
// every per-layer metric. The run's own workload is then run once more
// with the recorder off, and the difference is the tracing overhead.
type tracePass struct {
	b   *bench
	rec *recorder
	res *result

	// traced and outputs hold each workload pipeline's wall time and
	// output digest under tracing, for the overhead comparison.
	traced  map[string]time.Duration
	outputs map[string]string
	roots   map[string]int
}

func (b *bench) traced(w *workload) (*result, error) {
	t := &tracePass{
		b:       b,
		rec:     newRecorder(fmt.Sprintf("%s-seed%d", w.name, b.opts.seed)),
		res:     &result{Correct: true},
		traced:  map[string]time.Duration{},
		outputs: map[string]string{},
		roots:   map[string]int{},
	}
	// The passive command runs first, untraced, for the export residual:
	// its CSV writers live in package main and cannot be called from here.
	// It and the flash phase's worker fleet start while this process is
	// small, so their peak RSS is their own (see measure).
	export, err := b.execute(findMust("passive-stream"), execBudget)
	if err != nil {
		return nil, err
	}
	for _, phase := range []func() error{t.flash, t.passive, t.repro} {
		if err := phase(); err != nil {
			return nil, err
		}
		releaseMemory()
	}
	if export.Err == nil {
		export.Err = equalDigest("passive-stream reports.txt against the traced render",
			t.outputs["passive-stream"], export.Digests["reports.txt"])
	}
	t.check(export.Err)

	untraced, err := t.untraced(w)
	if err != nil {
		return nil, err
	}
	t.derive(w, export, untraced)
	t.report()
	return t.res, nil
}

func findMust(name string) *workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err) // the workload table is fixed at compile time
	}
	return w
}

// check counts one output check of the traced pass.
func (t *tracePass) check(err error) {
	t.res.Attempted++
	if err != nil {
		t.res.Failed++
		t.res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: traced check failed:", err)
	}
}

// passive traces the world build's parts, the passive-stream pipeline
// (build, stream, observe, render) and the routing layer's per-client
// ranking.
func (t *tracePass) passive() error {
	cfg := passiveConfig(t.b.opts.seed)
	root := t.rec.begin("passive-stream")
	t.roots["passive-stream"] = root
	if err := worldParts(t.rec, cfg); err != nil {
		return err
	}
	releaseMemory()
	start := time.Now()
	out, w, err := passivePipeline(t.rec, cfg)
	if err != nil {
		return err
	}
	t.traced["passive-stream"] = time.Since(start)
	t.outputs["passive-stream"] = digestBytes(out)

	sched := make([]topology.SiteID, cfg.Days)
	s := t.rec.begin("bgp.Router.IngressScheduleInto")
	for _, c := range w.Population.Clients {
		w.Router.IngressScheduleInto(bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}, sched)
	}
	t.rec.count(s, "clients", float64(len(w.Population.Clients)))
	t.rec.end(s)
	s = t.rec.begin("bgp.Router.BaseIngress")
	for _, c := range w.Population.Clients {
		sinkSite ^= w.Router.BaseIngress(bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP})
	}
	t.rec.end(s)
	t.rec.end(root)
	return nil
}

// worldParts times the world's layers one public call each, with the
// seeds sim.BuildWorld derives: topology's ISP model, the client
// population, and the resolver mapping.
func worldParts(rec *recorder, cfg sim.Config) error {
	dep, err := cdn.BuildPreset(cfg.Deployment)
	if err != nil {
		return err
	}
	metros := geo.World()
	s := rec.begin("topology.BuildISPs")
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(xrand.DeriveSeed(cfg.Seed, "isps")))
	rec.end(s)
	s = rec.begin("clients.Generate")
	pop, err := clients.Generate(metros, isps, clients.DefaultConfig(xrand.DeriveSeed(cfg.Seed, "clients"), cfg.Prefixes))
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("dns.BuildMapping")
	_, err = dns.BuildMapping(pop, isps, metros, dns.DefaultMapperConfig(xrand.DeriveSeed(cfg.Seed, "ldns")))
	rec.end(s)
	return err
}

// passivePipeline is what `anycastsim -reports` does short of writing
// CSV: build, stream every day through a StreamSuite, render reports.txt.
func passivePipeline(rec *recorder, cfg sim.Config) ([]byte, *sim.World, error) {
	s := rec.begin("sim.BuildWorld")
	w, err := sim.BuildWorld(cfg)
	rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	suite := experiments.NewStreamSuite(cfg, w)
	records := 0
	s = rec.begin("sim.StreamWorld")
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		o := rec.begin("experiments.StreamSuite.Observe")
		records += len(d.Passive)
		err := suite.Observe(d)
		rec.end(o)
		return err
	})
	rec.count(s, "records", float64(records))
	rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = rec.begin("experiments.Render")
	out := renderReports(suite)
	rec.end(s)
	return out, w, nil
}

// flash traces the distributed flash-crowd run: the real worker fleet,
// the largest shard's world build, and — in-process, as one shard — the
// encode and merge steps the fleet performs, plus the load policy's
// behaviour.
func (t *tracePass) flash() error {
	cfg, err := flashConfig(t.b.opts.seed)
	if err != nil {
		return err
	}
	root := t.rec.begin("flashcrowd-dist")
	t.roots["flashcrowd-dist"] = root
	start := time.Now()
	out, err := flashPipeline(t.b, t.rec, cfg)
	if err != nil {
		return err
	}
	t.traced["flashcrowd-dist"] = time.Since(start)
	t.outputs["flashcrowd-dist"] = digestBytes(out)
	releaseMemory()

	lo, hi := largestShard(cfg.Prefixes, fleetShards)
	s := t.rec.begin("sim.BuildShardWorld")
	_, err = sim.BuildShardWorld(cfg, lo, hi)
	t.rec.end(s)
	if err != nil {
		return err
	}
	releaseMemory()

	merged, err := t.shardPath(cfg)
	if err != nil {
		return err
	}
	t.check(equalDigest("single-shard merge against the fleet", t.outputs["flashcrowd-dist"], digestBytes(merged)))
	t.rec.end(root)
	return nil
}

// flashPipeline runs the worker fleet — the built anycastsim as worker
// binary — and renders reports.txt and utilization.csv from the merge.
func flashPipeline(b *bench, rec *recorder, cfg sim.Config) ([]byte, error) {
	s := rec.begin("distsim.Run")
	res, err := distsim.Run(b.ctx, cfg, distsim.Options{
		Shards:       fleetShards,
		Argv:         []string{b.bins["anycastsim"], "-worker"},
		StallTimeout: workerStall,
	})
	if err == nil {
		var peak int64
		for _, ws := range res.Workers {
			peak = max(peak, ws.PeakRSSBytes)
		}
		rec.count(s, "records", float64(res.Records))
		rec.count(s, "worker_peak_rss_bytes", float64(peak))
	}
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("experiments.Render")
	out := renderFlash(res.Suite, res.Utilization)
	rec.end(s)
	return out, nil
}

// renderFlash concatenates the two files a distributed managed run
// writes.
func renderFlash(suite *experiments.StreamSuite, util [][]sim.SiteUtil) []byte {
	var b bytes.Buffer
	b.Write(renderReports(suite))
	b.WriteString(utilizationHeader)
	for day, units := range util {
		appendUtilization(&b, suite.World, day, units)
	}
	return b.Bytes()
}

// shardPath replays the fleet's per-day work in this process as a single
// shard over the whole population: StreamShard with the fleet's derived
// capacities, ShardObserver.AppendDay encoding each day, and
// StreamSuite.MergeShardDay folding it into a coordinator-side suite.
func (t *tracePass) shardPath(cfg sim.Config) ([]byte, error) {
	n := cfg.Prefixes
	s := t.rec.begin("sim.BuildWorld")
	w, err := sim.BuildWorld(cfg)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	s = t.rec.begin("sim.BuildAnalysisWorld")
	aw, err := sim.BuildAnalysisWorld(cfg)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	s = t.rec.begin("sim.ShardLoadMatrix")
	m, err := sim.ShardLoadMatrix(cfg, w, 0, n)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	caps, err := sim.CapsFromLoadMatrix(cfg, aw, m)
	if err != nil {
		return nil, err
	}
	obs, err := experiments.NewShardObserver(cfg, w, 0, n)
	if err != nil {
		return nil, err
	}
	suite := experiments.NewStreamSuite(cfg, aw)
	util := make([][]sim.SiteUtil, 0, cfg.Days)
	var buf []byte
	var served, redirected, peak float64
	s = t.rec.begin("sim.StreamShard")
	err = sim.StreamShard(cfg, w, sim.ShardOpts{
		Lo: 0, Hi: n, Caps: caps,
		// One shard is the whole fleet: its demand is the global demand.
		ExchangeDemand: func(_ int, d map[topology.SiteID]float64) (map[topology.SiteID]float64, error) { return d, nil },
	}, func(d sim.DayResult) error {
		a := t.rec.begin("experiments.ShardObserver.AppendDay")
		buf = obs.AppendDay(d, buf[:0])
		t.rec.count(a, "bytes", float64(len(buf)))
		t.rec.end(a)
		mg := t.rec.begin("experiments.StreamSuite.MergeShardDay")
		err := suite.MergeShardDay(d.Day, 0, n, buf)
		t.rec.end(mg)
		for i, r := range d.Passive {
			served += float64(r.Queries)
			if r.FrontEnd != d.Assignments[i].FrontEnd {
				redirected += float64(r.Queries)
			}
		}
		for _, u := range d.Utilization {
			peak = max(peak, u.Utilization())
		}
		util = append(util, append([]sim.SiteUtil(nil), d.Utilization...))
		return err
	})
	t.rec.count(s, "served_queries", served)
	t.rec.count(s, "redirected_queries", redirected)
	t.rec.count(s, "peak_utilization", peak)
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	return renderFlash(suite, util), nil
}

// repro traces `repro -q`'s batch pipeline, then probes the beacon
// executor, the predictor and the two heaviest figures on its result.
func (t *tracePass) repro() error {
	cfg := reproConfig(t.b.opts.seed)
	root := t.rec.begin("repro")
	t.roots["repro"] = root
	start := time.Now()
	reports, res, err := reproPipeline(t.rec, cfg)
	if err != nil {
		return err
	}
	t.traced["repro"] = time.Since(start)
	t.outputs["repro"] = digestBytes(canonicalHeadlines(reports))

	w := res.World
	n := len(w.Population.Clients)
	s := t.rec.begin("beacon.Executor.Run")
	for k := 0; k < beaconProbeRuns; k++ {
		i, day := k%n, (k/n)%cfg.Days
		m := w.Executor.Run(w.Population.Clients[i], day, res.Assignments[i][day], uint64(k)|1<<48)
		sinkMs += m.Anycast.RTTms.Float()
	}
	t.rec.count(s, "runs", beaconProbeRuns)
	t.rec.end(s)

	vols := res.Volumes()
	pred := core.NewPredictor(core.DefaultConfig())
	for d := 0; d < coreProbeDays && d+1 < len(res.Beacons); d++ {
		obs, next := observations(res.Beacons[d]), observations(res.Beacons[d+1])
		for _, g := range []core.Grouping{core.ByPrefix, core.ByLDNS} {
			s := t.rec.begin("core.Predictor.Train")
			p := pred.Train(obs, g)
			t.rec.count(s, "observations", float64(len(obs)))
			t.rec.count(s, "groups", float64(p.Len()))
			t.rec.end(s)
			s = t.rec.begin("core.Evaluator.Evaluate")
			ev := core.Evaluator{Percentile: 0.5, MinSamples: 2}.Evaluate(p, next, vols)
			t.rec.count(s, "evaluations", float64(len(ev)))
			t.rec.end(s)
		}
	}

	// Figures 5 and 9 again, each on a fresh suite so neither borrows
	// the other's cached comparisons; they must repeat All's headlines.
	fresh := experiments.NewSuite(res)
	s = t.rec.begin("experiments.Suite.Figure5")
	f5 := fresh.Figure5()
	t.rec.end(s)
	s = t.rec.begin("experiments.Suite.Figure9")
	f9 := experiments.NewSuite(res).Figure9()
	t.rec.end(s)
	var want []experiments.Report
	for _, r := range reports {
		if r.ID == "fig5" || r.ID == "fig9" {
			want = append(want, r)
		}
	}
	t.check(equalDigest("figures 5 and 9 against Suite.All",
		digestBytes(canonicalHeadlines(want)), digestBytes(canonicalHeadlines([]experiments.Report{f5, f9}))))
	t.rec.end(root)
	return nil
}

// reproPipeline is `repro -q`: sim.Run's build and batch day loop, then
// every paper experiment.
func reproPipeline(rec *recorder, cfg sim.Config) ([]experiments.Report, *sim.Result, error) {
	s := rec.begin("sim.BuildWorld")
	w, err := sim.BuildWorld(cfg)
	rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = rec.begin("sim.RunWorld")
	res, err := sim.RunWorld(cfg, w)
	if err == nil {
		rec.count(s, "beacons", float64(res.TotalBeacons()))
		rec.count(s, "records", float64(res.Passive.Len()))
	}
	rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = rec.begin("experiments.Suite.All")
	reports := experiments.NewSuite(res).All()
	rec.end(s)
	return reports, res, nil
}

func observations(ms []beacon.Measurement) []core.Observation {
	out := make([]core.Observation, 0, 4*len(ms))
	for _, m := range ms {
		out = append(out, core.FromMeasurement(m)...)
	}
	return out
}

// untraced reruns the workload's own pipeline with the recorder off and
// returns its wall time; its output must match the traced pipeline's.
func (t *tracePass) untraced(w *workload) (time.Duration, error) {
	start := time.Now()
	var out string
	switch w.name {
	case "passive-stream":
		b, _, err := passivePipeline(nil, passiveConfig(t.b.opts.seed))
		if err != nil {
			return 0, err
		}
		out = digestBytes(b)
	case "flashcrowd-dist":
		cfg, err := flashConfig(t.b.opts.seed)
		if err != nil {
			return 0, err
		}
		b, err := flashPipeline(t.b, nil, cfg)
		if err != nil {
			return 0, err
		}
		out = digestBytes(b)
	case "repro":
		reports, _, err := reproPipeline(nil, reproConfig(t.b.opts.seed))
		if err != nil {
			return 0, err
		}
		out = digestBytes(canonicalHeadlines(reports))
	}
	wall := time.Since(start)
	t.check(equalDigest("untraced pipeline against the traced one", t.outputs[w.name], out))
	return wall, nil
}

// derive turns the spans into the per-layer metrics.
func (t *tracePass) derive(w *workload, export execution, untraced time.Duration) {
	P := t.rec.under(t.roots["passive-stream"])
	F := t.rec.under(t.roots["flashcrowd-dist"])
	R := t.rec.under(t.roots["repro"])
	set := t.res.set

	// World build.
	set("sim.build_world_s", "s", P.total("sim.BuildWorld"))
	set("clients.generate_s", "s", P.total("clients.Generate"))
	set("dns.build_mapping_s", "s", P.total("dns.BuildMapping"))
	set("topology.build_isps_s", "s", P.total("topology.BuildISPs"))
	set("sim.build_shard_world_s", "s", F.total("sim.BuildShardWorld"))

	// Routing and geometry.
	ingress := P.total("bgp.Router.IngressScheduleInto")
	set("bgp.ingress_schedule_s", "s", ingress)
	set("bgp.ingress_schedule_ns_per_client", "ns", ingress*1e9/P.sum("bgp.Router.IngressScheduleInto", "clients"))
	set("bgp.base_ingress_s", "s", P.total("bgp.Router.BaseIngress"))

	// Day loop.
	stream := P.named("sim.StreamWorld")[0]
	days := P.named("experiments.StreamSuite.Observe")
	set("sim.stream_self_s", "s", selfTimes(P)["sim.StreamWorld"].Seconds())
	set("sim.first_day_s", "s", time.Duration(days[0].Start-stream.Start).Seconds())
	var gaps []float64
	for k := 1; k < len(days); k++ {
		gaps = append(gaps, float64(days[k].Start-days[k-1].End)/1e6)
	}
	set("sim.day_ms_p50", "ms", summarize(gaps).Median)
	set("sim.run_world_s", "s", R.total("sim.RunWorld"))
	set("beacon.executions", "count", R.sum("sim.RunWorld", "beacons"))
	set("beacon.run_ns", "ns", R.total("beacon.Executor.Run")*1e9/R.sum("beacon.Executor.Run", "runs"))
	set("logs.records", "count", P.sum("sim.StreamWorld", "records"))

	// Aggregation.
	set("experiments.observe_s", "s", P.total("experiments.StreamSuite.Observe"))
	set("experiments.render_s", "s", P.total("experiments.Render"))
	set("experiments.suite_s", "s", R.total("experiments.Suite.All"))
	set("experiments.fig5_s", "s", R.total("experiments.Suite.Figure5"))
	set("experiments.fig9_s", "s", R.total("experiments.Suite.Figure9"))

	// Prediction.
	set("core.train_s", "s", R.total("core.Predictor.Train"))
	set("core.evaluate_s", "s", R.total("core.Evaluator.Evaluate"))
	set("core.observations", "count", R.sum("core.Predictor.Train", "observations"))
	set("core.groups", "count", R.sum("core.Predictor.Train", "groups"))

	// Distribution. The wire residual is derived: the fleet's wall time
	// less what its critical path computes — the largest shard's build,
	// one shard's share of the streamed days and their encoding, and the
	// coordinator's merge — leaving process start, framing and waiting.
	run := F.total("distsim.Run")
	merge := F.total("experiments.StreamSuite.MergeShardDay")
	shardSelf := selfTimes(F)["sim.StreamShard"].Seconds()
	appendS := F.total("experiments.ShardObserver.AppendDay")
	set("distsim.run_s", "s", run)
	set("distsim.worker_peak_rss_mib", "MiB", F.sum("distsim.Run", "worker_peak_rss_bytes")/(1<<20))
	set("distsim.records", "count", F.sum("distsim.Run", "records"))
	set("experiments.shard_append_s", "s", appendS)
	set("experiments.shard_bytes", "B", F.sum("experiments.ShardObserver.AppendDay", "bytes"))
	set("experiments.shard_merge_s", "s", merge)
	set("distsim.wire_residual_s", "s", run-F.total("sim.BuildShardWorld")-(shardSelf+appendS)/fleetShards-merge)

	// Load: behaviour, not speed; a performance change leaves both exact.
	set("load.redirected_share", "ratio",
		F.sum("sim.StreamShard", "redirected_queries")/F.sum("sim.StreamShard", "served_queries"))
	set("load.peak_utilization", "ratio", F.sum("sim.StreamShard", "peak_utilization"))

	// Export, derived: the passive command's wall time less the traced
	// build, stream, observe and render it shares with the pipeline.
	set("export.bytes", "B", float64(export.Bytes))
	set("export.residual_s", "s", export.Wall.Seconds()-
		P.total("sim.BuildWorld")-P.total("sim.StreamWorld")-P.total("experiments.Render"))

	// Tracing itself.
	set("trace.overhead_s", "s", (t.traced[w.name] - untraced).Seconds())
	set("trace.spans", "count", float64(len(t.rec.spans)))
}

// report prints the self time of every span name and writes the span
// dump beside the build.
func (t *tracePass) report() {
	self := selfTimes(t.rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("traced pass %s: %d spans; self time by span\n", t.rec.run, len(t.rec.spans))
	for _, n := range names {
		fmt.Printf("  %-40s %9.3f s\n", n, self[n].Seconds())
	}
	keys := make([]string, 0, len(t.res.Metrics))
	for k := range t.res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %14.6g %s\n", k, t.res.Metrics[k].Value, t.res.Metrics[k].Unit)
	}
	path := filepath.Join(t.b.work, "spans-"+t.rec.run+".json")
	if err := t.rec.dump(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing span dump:", err)
		return
	}
	fmt.Println("span dump:", path)
}
