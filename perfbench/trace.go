package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side
// of the boundary. Parent is the enclosing span's ID (0 for a root); all
// spans of one traced pass share Run.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the pass ends. It is used from one
// goroutine: the layers call back (stream days) on the caller's
// goroutine, so nesting follows the call stack. A nil recorder is tracing
// off: every method is a no-op, so the same code runs traced and
// untraced.
type recorder struct {
	run   string
	epoch time.Time
	spans spanSet
	open  []int // indices into spans, innermost last
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id-1)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// count attaches a count to span id, measured at the same boundary.
func (r *recorder) count(id int, name string, v float64) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] += v
}

// spanSet is a slice of recorded spans with lookups by name.
type spanSet []span

// under returns the spans below root (root excluded).
func (r *recorder) under(root int) spanSet {
	in := map[int]bool{root: true}
	var out spanSet
	for _, s := range r.spans { // parents are recorded before children
		if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// named returns the spans called name, in start order.
func (ss spanSet) named(name string) spanSet {
	var out spanSet
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total is the summed duration, in seconds, of every span called name.
func (ss spanSet) total(name string) float64 {
	var d time.Duration
	for _, s := range ss.named(name) {
		d += s.dur()
	}
	return d.Seconds()
}

// sum adds up a count over every span called name.
func (ss spanSet) sum(name, count string) float64 {
	var v float64
	for _, s := range ss.named(name) {
		v += s.Counts[count]
	}
	return v
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover. Overlapping
// children are merged first, so the result never goes below zero.
func selfTimes(spans spanSet) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, lo0, hi0 int64
		started := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if started && lo <= hi0 {
				hi0 = max(hi0, hi)
				continue
			}
			if started {
				covered += hi0 - lo0
			}
			lo0, hi0, started = lo, hi, true
		}
		if started {
			covered += hi0 - lo0
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// dump writes every span as one JSON document.
func (r *recorder) dump(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
