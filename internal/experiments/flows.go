package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"anycastcdn/internal/logs"
	"anycastcdn/internal/stats"
)

// TCPDisruption quantifies §2's claim that anycast route changes — which
// break in-flight TCP connections — "do not appear to be an issue in
// practice" for the short flows that dominate the Web. From the passive
// log's switch events it estimates, for a range of flow durations, the
// probability that a flow alive at a uniformly random moment of the study
// experiences a route change before completing.
//
// A switch event lands at a uniformly random instant of its day, so a flow
// of duration d overlaps it with probability min(1, d/86400) on a
// switch day. The per-duration disruption probability is the client-day
// average of that overlap.
func (s *Suite) TCPDisruption() Report { return s.stream.TCPDisruption() }

// tcpAgg accumulates per-client switch-day and total-day counts one
// passive record at a time. Dense arrays indexed by client ID (IDs are
// population indices): integer counters make the report independent of
// observation order, and the fixed index order is what lets the
// distributed merge copy each shard's slice in without ever reconciling
// map key sets.
type tcpAgg struct {
	switchDays []int32
	totalDays  []int32
}

func newTCPAgg(n int) *tcpAgg {
	return &tcpAgg{switchDays: make([]int32, n), totalDays: make([]int32, n)}
}

func (a *tcpAgg) observe(r logs.DayRecord) {
	a.totalDays[r.ClientID]++
	if r.FrontEndChanged() {
		a.switchDays[r.ClientID]++
	}
}

// appendState ships the counters of clients [lo, hi), which are final
// after the last day; mergeState copies them in. Every client has a
// record on every day, so a shard's total must equal days.
func (a *tcpAgg) appendState(dst []byte, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a.switchDays[i]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a.totalDays[i]))
	}
	return dst
}

func (a *tcpAgg) mergeState(data []byte, lo, hi, days int) ([]byte, error) {
	if len(data) < 8*(hi-lo) {
		return nil, fmt.Errorf("experiments: truncated TCP counters")
	}
	for i := lo; i < hi; i++ {
		sw := binary.LittleEndian.Uint32(data)
		total := binary.LittleEndian.Uint32(data[4:])
		data = data[8:]
		if total != uint32(days) || sw > total {
			return nil, fmt.Errorf("experiments: client %d has %d switch days of %d, want at most %d of %d",
				i, sw, total, days, days)
		}
		a.switchDays[i], a.totalDays[i] = int32(sw), int32(total)
	}
	return data, nil
}

func (a *tcpAgg) report() Report {
	durations := []time.Duration{
		time.Second, 10 * time.Second, time.Minute,
		10 * time.Minute, time.Hour, 12 * time.Hour, 24 * time.Hour,
	}
	const day = 24 * time.Hour

	tb := &stats.Table{
		Title:   "§2 claim check: probability a TCP flow is broken by an anycast route change",
		Columns: []string{"flow duration", "disruption probability", "flows broken per 10^6"},
	}
	probs := make([]float64, len(durations))
	for i, d := range durations {
		overlap := float64(d) / float64(day)
		if overlap > 1 {
			overlap = 1
		}
		var sum float64
		var n int
		// Ascending client order (the array index): float accumulation in
		// any other order would make the reported probabilities differ in
		// the last bits between runs.
		for client := range a.totalDays {
			total := a.totalDays[client]
			if total == 0 {
				continue
			}
			rate := float64(a.switchDays[client]) / float64(total)
			sum += rate * overlap
			n++
		}
		if n == 0 {
			continue
		}
		probs[i] = sum / float64(n)
		tb.Rows = append(tb.Rows, []string{
			d.String(),
			fmt.Sprintf("%.6f", probs[i]),
			fmt.Sprintf("%.0f", probs[i]*1e6),
		})
	}
	lines := []Headline{
		{
			Name:     "short web flows essentially never broken",
			Paper:    "\"does not appear to be an issue in practice\" (§2)",
			Measured: fmt.Sprintf("P(break | 10s flow) = %.6f", probs[1]),
		},
		{
			Name:     "long-lived connections do pay",
			Paper:    "anycast TCP concerns focus on long flows [31]",
			Measured: fmt.Sprintf("P(break | 24h flow) = %.4f", probs[len(probs)-1]),
		},
	}
	return Report{ID: "tcp-disruption", Table: tb, Lines: lines}
}
