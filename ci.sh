#!/usr/bin/env sh
# ci.sh — the full local gate, in the order failures are cheapest:
#
#   1. build everything
#   2. go vet (stdlib checks; its copylocks check owns the no-lock-copies
#      invariant)
#   3. anycastvet (this repo's invariant suite, one analyzer per
#      invariant: unchecked errors, no panics in library code, goroutine
#      join/cancel paths, ctx propagation in dnswire/distsim, dimensional
#      safety for ms/km quantities, documented locking contracts, replay
#      safety — order-dependent map iteration, and wall-clock or global
#      rand use anywhere on the replay path — allocation-free hot paths,
#      lock discipline — order cycles, double locks, locks held at
#      return — and flow-sensitive error tracking), run once over the
#      whole module — the run leaves anycastvet.json as a
#      machine-readable artifact, names every failing check in the CI
#      log, prints the module-fact build time and each analyzer's own
#      pass time (artifact: vet_timings.txt), and fails if the whole
#      pass exceeds 60 seconds or the fact build or any single analyzer
#      exceeds 20 seconds (the suite runs in a couple of seconds; an
#      order-of-magnitude regression means an analyzer — with the
#      dataflow passes, most plausibly the CFG fixpoint — went
#      quadratic)
#   4. unit tests in -short mode (which re-run anycastvet over the tree
#      via internal/analysis/self_test.go), then the long-running targets
#      as named steps so a failure is attributable in the CI log: the full
#      experiment suites, the 1M-prefix x 30-day streaming smoke that
#      proves paper-scale runs stay inside their wall-clock and 2 GiB
#      memory budgets, the distributed-vs-single byte-identity gate (the
#      sharded worker fleet must merge to the exact reports — and, with a
#      load policy, the exact utilization table — the single process
#      writes), and the 4M-prefix x 30-day x 4-worker distributed smoke
#      with its 2 GiB per-worker peak-RSS budget
#   5. fuzz smoke: 5 seconds each on the DNS wire decoder, the /24
#      parser, the fault-scenario parser, the prepared-target geometry
#      kernel (against brute-force distance ranking), the §6 predictor's
#      day index (training and evaluation against the map-based
#      references), and every decoder
#      on the distributed-run boundary (the frame reader, the ECDF
#      builder and quantile sketch merges, the load-matrix and site-map
#      decoders, the shard-day merge), enough to replay the corpus and
#      shake out shallow panics
#   6. race detector over the concurrent packages: the dnswire servers,
#      the parallel simulation core, the fault-injection layer, the
#      loopback testbed, the HTTP front-ends, the client population
#      generator, the load manager, the columnar log, the stats
#      kernels, and the distributed coordinator/worker layer
#   7. coverage floor: the scenario engine, the simulation core, the
#      analysis engine, and the load-management layer together must keep
#      >= 80% statement coverage (artifact: cover_repro.out)
#   8. benchmarks at -benchtime=1x, summarized by cmd/benchjson into the
#      machine-readable artifact BENCH_repro.json and gated against the
#      checked-in BENCH_baseline.json: the baseline's benchmarks may not
#      regress past 15%, the xrand substream, latency sampling and
#      peering-rank benchmarks must report 0 allocs/op, the simulation
#      cores must stay
#      at least 3x below their pre-columnar B/op (RunWorld/StreamWorld
#      baseline was ~223 MB/op; the ceiling is 74 MB/op), the
#      whole-fleet distributed run must stay under 55 MB/op (frame
#      buffers are reused, so the bill is dominated by the two worker
#      world builds), and Figure 9 over its per-day index must stay under
#      120 MB/op (574 MB/op before the index); a failure names the
#      benchmark and both the baseline and current values. The ns-scale
#      benchmarks (SampleRTT, Substream) are gated on allocs only and
#      carry no time entry in the baseline: a single 1x iteration of a
#      ~100 ns operation measures timer noise, so a time gate on it would
#      either never fire or fire at random. The same run holds the headline metrics — Figure
#      3's share of requests >= 25 ms slower, Figure 4's share at the
#      closest front-end, Figure 6's poor-on-one-day share, Figure 7's
#      and the no-weekend-churn ablation's weekly switched share,
#      Figure 8's median switch distance, Figure 9's headline and every
#      predictor ablation's improved/worse split — inside bands of
#      +/-0.5 percentage points (+/-5 km for the distance) around the
#      reference values recorded in EXPERIMENTS.md
#
# Usage: ./ci.sh
set -eu

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== anycastvet -json -timings ./... (artifacts: anycastvet.json, vet_timings.txt)'
vet_start=$(date +%s)
if ! go run ./cmd/anycastvet -json -timings ./... > anycastvet.json 2> vet_timings.txt; then
	cat vet_timings.txt >&2
	echo 'ci.sh: anycastvet reported violations; offending check(s):' >&2
	grep -o '"check": *"[a-z0-9]*"' anycastvet.json | sort -u >&2
	exit 1
fi
cat vet_timings.txt
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "anycastvet pass took ${vet_elapsed}s (budget 60s, 20s per analyzer)"
if [ "$vet_elapsed" -gt 60 ]; then
	echo "ci.sh: anycastvet took ${vet_elapsed}s, over the 60s budget; an analyzer has gone quadratic" >&2
	exit 1
fi
awk '/^anycastvet:/ {
	ms = $3; sub(/ms$/, "", ms)
	if (ms + 0 > 20000) { printf "ci.sh: analyzer %s took %sms, over the 20s per-analyzer budget\n", $2, ms; bad = 1 }
} END { exit bad }' vet_timings.txt

echo '== go test ./... (short mode; the long-running targets get named steps below)'
go test -short ./...

echo '== long-running experiment suites (skipped above by -short)'
go test -run 'TestAllRuns|TestDeploymentDensity' ./internal/experiments/

echo '== 1M-prefix x 30-day streaming smoke (bounded memory + wall clock)'
go test -run TestStreamWorldMillionPrefixSmoke -v ./internal/sim/

echo '== distributed-vs-single byte-identity (reports must match exactly, with and without a load policy)'
go build -o anycastsim.ci ./cmd/anycastsim
rm -rf ci_dist_out
mkdir -p ci_dist_out/single ci_dist_out/dist ci_dist_out/single_lm ci_dist_out/dist_lm
./anycastsim.ci -prefixes 2000 -days 9 -reports -out ci_dist_out/single > /dev/null
./anycastsim.ci -prefixes 2000 -days 9 -distribute 3 -out ci_dist_out/dist > /dev/null
cmp ci_dist_out/single/reports.txt ci_dist_out/dist/reports.txt || {
	echo 'ci.sh: distributed reports differ from single-process' >&2; exit 1; }
./anycastsim.ci -prefixes 2000 -days 9 -reports -loadpolicy fastroute \
	-scenario 'surge south-america day=3 for=3 qps=6' -out ci_dist_out/single_lm > /dev/null
./anycastsim.ci -prefixes 2000 -days 9 -distribute 3 -loadpolicy fastroute \
	-scenario 'surge south-america day=3 for=3 qps=6' -out ci_dist_out/dist_lm > /dev/null
cmp ci_dist_out/single_lm/reports.txt ci_dist_out/dist_lm/reports.txt || {
	echo 'ci.sh: load-managed distributed reports differ from single-process' >&2; exit 1; }
cmp ci_dist_out/single_lm/utilization.csv ci_dist_out/dist_lm/utilization.csv || {
	echo 'ci.sh: load-managed distributed utilization differs from single-process' >&2; exit 1; }
echo 'distributed reports and utilization byte-identical to single-process'

echo '== 4M-prefix x 30-day x 4-worker distributed smoke (per-worker peak RSS <= 2 GiB)'
./anycastsim.ci -prefixes 4000000 -days 30 -beaconrate 0 -distribute 4 \
	-out ci_dist_out/scale | tee ci_dist_out/scale.log
awk '/peak RSS/ {
	n += 1
	rss = $(NF-1)
	if (rss + 0 > 2048) { printf "ci.sh: worker peak RSS %.1f MiB exceeds the 2 GiB budget\n", rss; bad = 1 }
} END {
	if (n != 4) { printf "ci.sh: expected 4 worker RSS reports, saw %d\n", n; exit 1 }
	exit bad
}' ci_dist_out/scale.log
rm -rf ci_dist_out anycastsim.ci

echo '== fuzz smoke (5s per target)'
go test -run '^$' -fuzz FuzzMessageUnpack -fuzztime 5s ./internal/dnswire/
go test -run '^$' -fuzz FuzzParsePrefix24 -fuzztime 5s ./internal/netaddr/
go test -run '^$' -fuzz FuzzParseScenario -fuzztime 5s ./internal/faults/
go test -run '^$' -fuzz '^FuzzTargetsMatchReference$' -fuzztime 5s ./internal/geo/
go test -run '^$' -fuzz '^FuzzDayMatchesReference$' -fuzztime 5s ./internal/core/
go test -run '^$' -fuzz '^FuzzFrameRead$' -fuzztime 5s ./internal/distsim/
go test -run '^$' -fuzz '^FuzzECDFBuilderMergeEncoded$' -fuzztime 5s ./internal/stats/
go test -run '^$' -fuzz '^FuzzQuantileSketchMergeEncoded$' -fuzztime 5s ./internal/stats/
go test -run '^$' -fuzz '^FuzzDecodeMatrix$' -fuzztime 5s ./internal/distsim/
go test -run '^$' -fuzz '^FuzzDecodeSiteMap$' -fuzztime 5s ./internal/distsim/
go test -run '^$' -fuzz '^FuzzMergeShardDay$' -fuzztime 5s ./internal/experiments/

echo '== go test -race (concurrent packages)'
go test -race ./internal/dnswire/ ./internal/sim/ ./internal/faults/ ./internal/testbed/ ./internal/frontend/ ./internal/clients/ ./internal/load/ ./internal/logs/ ./internal/stats/ ./internal/distsim/

echo '== coverage floor: internal/faults + internal/sim + internal/analysis + internal/load >= 80% (artifact: cover_repro.out)'
go test -coverpkg=anycastcdn/internal/faults,anycastcdn/internal/sim,anycastcdn/internal/analysis,anycastcdn/internal/load \
	-coverprofile=cover_repro.out ./internal/faults/ ./internal/sim/ ./internal/analysis/ ./internal/load/ > /dev/null
total=$(go tool cover -func=cover_repro.out | awk '/^total:/ { gsub("%", "", $3); print $3 }')
awk -v t="$total" 'BEGIN {
	if (t + 0 < 80) { printf "ci.sh: faults+sim+analysis+load coverage %.1f%% is below the 80%% floor\n", t; exit 1 }
	printf "faults+sim+analysis+load coverage: %.1f%% (floor 80%%)\n", t
}'

echo '== benchmarks at -benchtime=1x, gated against BENCH_baseline.json and headline bands (artifact: BENCH_repro.json)'
# Headline bands: each reference value in EXPERIMENTS.md ("Headline
# bands") +/-0.5 percentage points, unless noted.
bands=BenchmarkFigure9.pct-weighted-improved=13.5:14.5
bands=$bands,BenchmarkAblationMetricP25.pct-improved=13.5:14.5,BenchmarkAblationMetricP25.pct-worse=4.2:5.2
bands=$bands,BenchmarkAblationMetricMedian.pct-improved=13.4:14.4,BenchmarkAblationMetricMedian.pct-worse=5.5:6.5
bands=$bands,BenchmarkAblationMetricP75.pct-improved=13.1:14.1,BenchmarkAblationMetricP75.pct-worse=10.8:11.8
bands=$bands,BenchmarkAblationMetricP95.pct-improved=10.2:11.2,BenchmarkAblationMetricP95.pct-worse=44.2:45.2
bands=$bands,BenchmarkAblationFloor5.pct-improved=16.4:17.4,BenchmarkAblationFloor5.pct-worse=5.9:6.9
bands=$bands,BenchmarkAblationFloor50.pct-improved=9.4:10.4,BenchmarkAblationFloor50.pct-worse=2.3:3.3
bands=$bands,BenchmarkAblationHybridMargin10.pct-improved=6.6:7.6,BenchmarkAblationHybridMargin10.pct-worse=1.7:2.7
bands=$bands,BenchmarkAblationHybridMargin25.pct-improved=5.2:6.2,BenchmarkAblationHybridMargin25.pct-worse=0.8:1.8
bands=$bands,BenchmarkFigure3.pct-requests-25ms-slower=16.2:17.2,BenchmarkFigure4.pct-at-closest=53.8:54.8
bands=$bands,BenchmarkFigure6.pct-poor-one-day=40.1:41.1,BenchmarkFigure7.pct-switched-weekly=19.1:20.1
bands=$bands,BenchmarkAblationNoWeekendChurn.pct-switched-weekly=22.5:23.5
# Figure 8's median is a distance: +/-5 km around 648 km.
bands=$bands,BenchmarkFigure8.median-switch-km=643:653
go test -run '^$' -bench . -benchtime 1x -json ./... | go run ./cmd/benchjson \
	-o BENCH_repro.json \
	-compare BENCH_baseline.json -tolerance 0.15 \
	-maxallocs BenchmarkSubstream=0,BenchmarkSampleRTT=0,BenchmarkRankPeeringByAir=0 \
	-maxbytes BenchmarkRunWorld=74000000,BenchmarkStreamWorld=74000000,BenchmarkDistWorld=55000000,BenchmarkFigure9=120000000 \
	-band "$bands"

echo '== ci.sh: all gates passed'
