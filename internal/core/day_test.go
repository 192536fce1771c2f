package core

import (
	"math"
	"sort"
	"testing"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// evaluateReference is Evaluate as it was before the day index: it hashes
// every next-interval sample into a (client, target) map and sorts a copy
// of each bucket per quantile. TestDayMatchesReference and
// FuzzDayMatchesReference hold EvaluateDay to it.
func evaluateReference(ev Evaluator, pred *Predictions, next []Observation, volumes map[uint64]float64) []Evaluation {
	if ev.Percentile <= 0 || ev.Percentile > 1 {
		ev.Percentile = 0.5
	}
	if ev.MinSamples < 1 {
		ev.MinSamples = 1
	}
	// Index next-interval samples by (client, target).
	type ckey struct {
		client uint64
		target Target
	}
	samples := map[ckey][]units.Millis{}
	ldnsOf := map[uint64]dns.LDNSID{}
	for _, o := range next {
		samples[ckey{o.ClientID, o.Target}] = append(samples[ckey{o.ClientID, o.Target}], o.RTTms)
		ldnsOf[o.ClientID] = o.LDNS
	}
	// Collect distinct clients in stable order.
	clientSet := map[uint64]bool{}
	for k := range samples {
		clientSet[k.client] = true
	}
	ids := make([]uint64, 0, len(clientSet))
	//replay:commutative keys only; sorted immediately below, so collection order is discarded
	for id := range clientSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Evaluation
	for _, client := range ids {
		target := pred.For(client, ldnsOf[client])
		weight := 1.0
		if v, ok := volumes[client]; ok {
			weight = v
		}
		e := Evaluation{ClientID: client, Predicted: target, Weight: weight}
		if target.Anycast {
			// The scheme kept the client on anycast: no change either way.
			out = append(out, e)
			continue
		}
		anySamples := samples[ckey{client, AnycastTarget}]
		predSamples := samples[ckey{client, target}]
		if len(anySamples) < ev.MinSamples || len(predSamples) < ev.MinSamples {
			continue // cannot evaluate this client
		}
		anyQ, err1 := stats.Quantile(anySamples, ev.Percentile)
		predQ, err2 := stats.Quantile(predSamples, ev.Percentile)
		if err1 != nil || err2 != nil {
			continue
		}
		e.ImprovementMs = anyQ - predQ
		out = append(out, e)
	}
	return out
}

// sameMillis is == except that NaN matches NaN. -0 matches +0: neither
// implementation orders equal samples, so the sign of a zero quantile is
// not part of the contract.
func sameMillis(a, b units.Millis) bool {
	return a == b || (math.IsNaN(a.Float()) && math.IsNaN(b.Float()))
}

// diffConfigs are the predictor configurations the differential tests
// sweep: every metric, floors on both sides of the inputs' bucket sizes,
// and hybrid margins.
var diffConfigs = []Config{
	DefaultConfig(),
	{Metric: MetricMedian, MinMeasurements: 20},
	{Metric: MetricP75, MinMeasurements: 18},
	{Metric: MetricP95, MinMeasurements: 22},
	{Metric: MetricP25, MinMeasurements: 1},
	{Metric: MetricP25, MinMeasurements: 3},
	{Metric: MetricP25, MinMeasurements: 20, HybridMarginMs: 10},
	{Metric: MetricMedian, MinMeasurements: 2, HybridMarginMs: 0.5},
	{Metric: MetricP95, MinMeasurements: 5, HybridMarginMs: 25},
}

// diffEvaluators are the evaluators the differential tests sweep,
// including one the clamps rewrite.
var diffEvaluators = []Evaluator{
	{Percentile: 0.5, MinSamples: 2},
	{Percentile: 0.75, MinSamples: 2},
	{Percentile: 0.25, MinSamples: 20},
	{Percentile: 1, MinSamples: 1},
	{Percentile: 7, MinSamples: -1},
}

// checkDayMatchesReference trains on train and evaluates on next under
// every diffConfigs entry, grouping and diffEvaluators entry, once through
// Train/Evaluate and once through the references, and fails on the first
// difference.
func checkDayMatchesReference(t *testing.T, train, next []Observation, vols map[uint64]float64) {
	t.Helper()
	trainDay, nextDay := NewDay(train), NewDay(next)
	for _, cfg := range diffConfigs {
		p := NewPredictor(cfg)
		for _, g := range []Grouping{ByPrefix, ByLDNS} {
			want := trainReference(p, train, g)
			// Train indexes one grouping; TrainDay reads a Day that holds both.
			for _, got := range []*Predictions{p.Train(train, g), p.TrainDay(trainDay, g)} {
				if len(got.byGroup) != len(want.byGroup) {
					t.Fatalf("cfg %+v grouping %v: %d predictions, reference has %d",
						cfg, g, len(got.byGroup), len(want.byGroup))
				}
				for id, wt := range want.byGroup {
					gt, ok := got.byGroup[id]
					if !ok || gt != wt {
						t.Fatalf("cfg %+v grouping %v group %d: predicted %v (present %v), reference %v",
							cfg, g, id, gt, ok, wt)
					}
					if !sameMillis(got.scores[id], want.scores[id]) {
						t.Fatalf("cfg %+v grouping %v group %d: score %v, reference %v",
							cfg, g, id, got.scores[id], want.scores[id])
					}
				}
			}
			for _, ev := range diffEvaluators {
				evals := ev.Evaluate(want, next, vols)
				ref := evaluateReference(ev, want, next, vols)
				shared := ev.EvaluateDay(want, nextDay, vols)
				if len(evals) != len(ref) || len(shared) != len(ref) {
					t.Fatalf("cfg %+v grouping %v %+v: %d evaluations (%d over a shared Day), reference has %d",
						cfg, g, ev, len(evals), len(shared), len(ref))
				}
				for i := range ref {
					for _, e := range []Evaluation{evals[i], shared[i]} {
						r := ref[i]
						if e.ClientID != r.ClientID || e.Predicted != r.Predicted || e.Weight != r.Weight ||
							!sameMillis(e.ImprovementMs, r.ImprovementMs) {
							t.Fatalf("cfg %+v grouping %v %+v evaluation %d: %+v, reference %+v",
								cfg, g, ev, i, e, r)
						}
					}
				}
			}
		}
	}
}

// dayObs builds one deterministic day that exercises every case the index
// must get right: observations interleaved per beacon; per-target bucket
// sizes straddling 20 (DefaultConfig's floor); clients that move to
// another LDNS halfway through the day; unicast site 0 beside anycast; and
// NaN, ±Inf and ±0 latencies, scattered and as whole buckets.
func dayObs(day int) []Observation {
	negZero := units.Millis(math.Copysign(0, -1))
	scattered := []units.Millis{units.Millis(math.NaN()), units.Millis(math.Inf(1)),
		units.Millis(math.Inf(-1)), 0, negZero}
	var obs []Observation
	for c := uint64(0); c < 60; c++ {
		n := 20 + int((c+uint64(day))%9) - 4
		for k := 0; k < n; k++ {
			ldns := dns.LDNSID(c % 7)
			if c%5 == 0 && k >= n/2 {
				ldns = dns.LDNSID(7 + c%3)
			}
			for fe := 0; fe < 5; fe++ {
				t := AnycastTarget
				if fe > 0 {
					t = Target{Site: topology.SiteID(fe - 1)}
				}
				if (c+uint64(fe))%4 == 3 && k >= n-3 {
					continue // a few buckets fall a little short
				}
				rtt := units.Millis(20 + (int(c)*7+fe*5+k*3+day)%23)
				switch {
				case c == 3 && fe == 0:
					rtt = units.Millis(math.NaN())
				case c == 4 && fe == 1:
					rtt = units.Millis(math.Inf(-1))
				case c == 6 && fe == 2 && k%2 == 0:
					rtt = negZero
				case c == 6 && fe == 2:
					rtt = 0
				case c == 8 && fe == 0:
					rtt = units.Millis(math.Inf(1))
				case (int(c)+k+fe+day)%41 == 0:
					rtt = scattered[(int(c)+k)%len(scattered)]
				}
				obs = append(obs, Observation{ClientID: c, LDNS: ldns, Target: t, RTTms: rtt, Slot: uint8(fe)})
			}
		}
	}
	return obs
}

func TestDayMatchesReference(t *testing.T) {
	vols := map[uint64]float64{0: 3, 5: 0.5, 10: 12, 41: 7}
	for day := 0; day < 3; day++ {
		train, next := dayObs(day), dayObs(day+1)
		checkDayMatchesReference(t, train, next, vols)
		// The same day as its own next interval, and the empty cases.
		checkDayMatchesReference(t, train, train, vols)
	}
	checkDayMatchesReference(t, nil, dayObs(0), nil)
	checkDayMatchesReference(t, dayObs(0), nil, nil)
	// TestTrainMatchesReference's dense and sparse workloads.
	checkDayMatchesReference(t, synthObs(120, 22), synthObs(90, 21), nil)
}

// fuzzRTTs maps a byte to a latency: mostly small integers, so buckets
// tie, plus every special value.
var fuzzRTTs = []units.Millis{
	units.Millis(math.NaN()), units.Millis(math.Inf(1)), units.Millis(math.Inf(-1)),
	0, units.Millis(math.Copysign(0, -1)), -3, 0.5, 12.25,
}

// fuzzObs decodes three bytes per observation: client and LDNS, target,
// latency. Target code 0 is anycast, 1 unicast site 0, 7 an anycast
// target carrying a site (which never compares equal to AnycastTarget).
func fuzzObs(data []byte) []Observation {
	obs := make([]Observation, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		client := uint64(data[i] & 7)
		ldns := dns.LDNSID(data[i] >> 3 & 3)
		var t Target
		switch code := data[i+1] % 8; code {
		case 0:
			t = AnycastTarget
		case 7:
			t = Target{Anycast: true, Site: 2}
		default:
			t = Target{Site: topology.SiteID(code - 1)}
		}
		rtt := units.Millis(data[i+2] % 32)
		if data[i+2] >= 224 {
			rtt = fuzzRTTs[data[i+2]%8]
		}
		obs = append(obs, Observation{ClientID: client, LDNS: ldns, Target: t, RTTms: rtt})
	}
	return obs
}

func FuzzDayMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 10, 0, 1, 5, 0, 0, 12, 0, 1, 4}, []byte{0, 0, 11, 0, 1, 6, 0, 0, 13, 0, 1, 2})
	f.Add([]byte{9, 0, 224, 9, 1, 225, 9, 0, 226, 17, 7, 227, 17, 0, 228, 1, 2, 229},
		[]byte{9, 0, 230, 9, 1, 231, 1, 7, 3, 1, 0, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, train, next []byte) {
		checkDayMatchesReference(t, fuzzObs(train), fuzzObs(next), map[uint64]float64{1: 2, 3: 0.25})
	})
}
