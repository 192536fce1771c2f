package core

import (
	"slices"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// Day is one interval's observations indexed for training and
// evaluation. Build it once with NewDay; Predictor.TrainDay and
// Evaluator.EvaluateDay then read it without hashing or sorting, so a day
// that is trained on under both groupings and scored at several
// percentiles pays for its grouping and sorting once.
type Day struct {
	byClient groupIndex
	byLDNS   groupIndex
}

// groupIndex is one grouping's view of a day in compressed sparse rows:
// flat arrays plus offsets. Groups are in ascending key order; a group's
// (target, samples) runs are in pickTarget order (anycast first, then by
// site), and each run's samples are in stats.SortFloats order.
type groupIndex struct {
	keys  []uint64
	first []int // group i's runs are runs[first[i]:first[i+1]]
	runs  []targetRun
	rtts  []units.Millis
	// lastLDNS[i] is the resolver of group i's last observation in input
	// order. Only the client index fills it: evaluation attributes each
	// client to the LDNS it was last seen behind.
	lastLDNS []dns.LDNSID
}

// targetRun is one (group, target) bucket: its samples are
// rtts[start:end].
type targetRun struct {
	target     Target
	start, end int
}

// NewDay indexes one interval's observations by client and by LDNS.
func NewDay(obs []Observation) *Day {
	d := &Day{}
	d.byClient.build(obs, ByPrefix)
	d.byLDNS.build(obs, ByLDNS)
	return d
}

func (d *Day) index(g Grouping) *groupIndex {
	if g == ByPrefix {
		return &d.byClient
	}
	return &d.byLDNS
}

// targetBefore is pickTarget's order: anycast first, then by site.
func targetBefore(a, b Target) bool {
	if a.Anycast != b.Anycast {
		return a.Anycast
	}
	return a.Site < b.Site
}

// build fills ix from obs under grouping g. Groups and their targets are
// numbered in first-seen order while the observations stream past; a
// group's handful of targets sit on a linked list in first-seen order, so
// finding a bucket is a short scan rather than a hash of a composite key,
// and the targets every beacon measures (anycast, the front-end nearest
// the LDNS) sit at its head. The numbering is then permuted into key and
// target order, and the samples are scattered into their runs and sorted
// there.
//
//perf:hotpath
func (ix *groupIndex) build(obs []Observation, g Grouping) {
	// A beacon expands to four observations of one client, so groups and
	// runs rarely exceed a quarter of the observation count.
	slotOf := make(map[uint64]int)
	slotKeys := make([]uint64, 0, len(obs)/4+1)
	slotHead := make([]int, 0, len(obs)/4+1) // first run of each group slot
	slotLDNS := make([]dns.LDNSID, 0, len(obs)/4+1)
	runTarget := make([]Target, 0, len(obs)/4+1)
	runNext := make([]int, 0, len(obs)/4+1) // next run of the same group, or -1
	runLen := make([]int, 0, len(obs)/4+1)
	obsRun := make([]int32, len(obs)) // run of each observation
	slot := -1
	for i, o := range obs {
		key := groupKey(o, g)
		if slot < 0 || slotKeys[slot] != key {
			s, ok := slotOf[key]
			if !ok {
				s = len(slotKeys)
				slotOf[key] = s
				slotKeys = append(slotKeys, key)
				slotHead = append(slotHead, -1)
				slotLDNS = append(slotLDNS, o.LDNS)
			}
			slot = s
		}
		slotLDNS[slot] = o.LDNS
		r, last := slotHead[slot], -1
		for r >= 0 && runTarget[r] != o.Target {
			r, last = runNext[r], r
		}
		if r < 0 {
			r = len(runTarget)
			runTarget = append(runTarget, o.Target)
			runNext = append(runNext, -1)
			runLen = append(runLen, 0)
			if last < 0 {
				slotHead[slot] = r
			} else {
				runNext[last] = r
			}
		}
		runLen[r]++
		obsRun[i] = int32(r)
	}

	groups := len(slotKeys)
	ix.keys = slices.Clone(slotKeys)
	slices.Sort(ix.keys)
	ix.first = make([]int, groups+1)
	ix.runs = make([]targetRun, 0, len(runTarget))
	ix.rtts = make([]units.Millis, len(obs))
	if g == ByPrefix {
		ix.lastLDNS = make([]dns.LDNSID, groups)
	}
	// runStart[r] is where run r's next sample goes.
	runStart := make([]int, len(runTarget))
	order := make([]int, 0, 16) // one group's runs, reused
	off := 0
	for gi, key := range ix.keys {
		s := slotOf[key]
		if ix.lastLDNS != nil {
			ix.lastLDNS[gi] = slotLDNS[s]
		}
		order = order[:0]
		for r := slotHead[s]; r >= 0; r = runNext[r] {
			order = append(order, r)
		}
		// Insertion sort: a group has a handful of targets.
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && targetBefore(runTarget[order[b]], runTarget[order[b-1]]); b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		ix.first[gi] = len(ix.runs)
		for _, r := range order {
			runStart[r] = off
			ix.runs = append(ix.runs, targetRun{target: runTarget[r], start: off, end: off + runLen[r]})
			off += runLen[r]
		}
	}
	ix.first[groups] = len(ix.runs)
	for i, o := range obs {
		r := obsRun[i]
		ix.rtts[runStart[r]] = o.RTTms
		runStart[r]++
	}
	for _, run := range ix.runs {
		stats.SortFloats(ix.rtts[run.start:run.end])
	}
}

// group returns group i's runs.
func (ix *groupIndex) group(i int) []targetRun { return ix.runs[ix.first[i]:ix.first[i+1]] }

// samples returns group i's sorted samples for t, or nil if it has none.
func (ix *groupIndex) samples(i int, t Target) []units.Millis {
	for _, run := range ix.group(i) {
		if run.target == t {
			return ix.rtts[run.start:run.end]
		}
	}
	return nil
}
