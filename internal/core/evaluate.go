package core

import (
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// Evaluation is the next-interval outcome for one client /24 (§6): the
// difference between anycast performance and predicted-target performance
// at an evaluation percentile. Positive improvement means the prediction
// beat anycast; negative means the prediction made things worse — both
// sides appear in Figure 9.
type Evaluation struct {
	ClientID uint64
	// Predicted is the target the scheme chose for the client's group.
	Predicted Target
	// ImprovementMs = anycast percentile − predicted-target percentile.
	// Zero when the scheme predicted anycast.
	ImprovementMs units.Millis
	// Weight is the client's query volume (Figure 9 weights by volume).
	Weight float64
}

// Evaluator scores predictions against the following interval's
// observations.
type Evaluator struct {
	// Percentile of the next-day per-target distribution to compare; the
	// paper reports the 50th and 75th ("the Bing team routinely uses 75th
	// percentile latency as an internal benchmark").
	Percentile float64
	// MinSamples is the per-(client, target) floor for an evaluation to
	// count; clients without enough anycast or predicted-target samples
	// the next day are skipped (unmeasurable, as in the paper's join).
	MinSamples int
}

// Evaluate computes per-client evaluations of pred over the next
// interval's observations. volumes maps client→query volume; clients
// missing from it get weight 1. It indexes next by client alone; see
// EvaluateDay.
func (ev Evaluator) Evaluate(pred *Predictions, next []Observation, volumes map[uint64]float64) []Evaluation {
	var day Day
	day.byClient.build(next, ByPrefix)
	return ev.EvaluateDay(pred, &day, volumes)
}

// EvaluateDay computes per-client evaluations of pred over an indexed next
// interval, in client id order. Each client is attributed to the LDNS of
// its last observation that day, which is what an LDNS-grouped prediction
// is looked up by.
//
//perf:hotpath
func (ev Evaluator) EvaluateDay(pred *Predictions, next *Day, volumes map[uint64]float64) []Evaluation {
	if ev.Percentile <= 0 || ev.Percentile > 1 {
		ev.Percentile = 0.5
	}
	if ev.MinSamples < 1 {
		ev.MinSamples = 1
	}
	ix := &next.byClient
	out := make([]Evaluation, 0, len(ix.keys))
	for i, client := range ix.keys {
		target := pred.For(client, ix.lastLDNS[i])
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
		anySamples := ix.samples(i, AnycastTarget)
		predSamples := ix.samples(i, target)
		if len(anySamples) < ev.MinSamples || len(predSamples) < ev.MinSamples {
			continue // cannot evaluate this client
		}
		anyQ, err1 := stats.QuantileSorted(anySamples, ev.Percentile)
		predQ, err2 := stats.QuantileSorted(predSamples, ev.Percentile)
		if err1 != nil || err2 != nil {
			continue
		}
		e.ImprovementMs = anyQ - predQ
		out = append(out, e)
	}
	return out
}
