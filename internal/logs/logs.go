// Package logs models the CDN's passive server logs (§3.2.1): per-request
// records of which front-end served each client, aggregated per client /24
// and day. The front-end affinity analysis of §5 (Figures 7 and 8) runs
// over these records; its rules live in the experiment aggregators that
// observe them, not here.
//
// A materialized log (sim.Result.Passive) is stored column-wise
// (struct-of-arrays): parallel slices per field instead of a slice of row
// structs. Passive logs are the one dataset that scales with prefixes ×
// days — the paper's covers millions of client /24s over a month — and
// the columnar layout cuts a record from 48 padded AoS bytes to 28 (the
// switched flag rides in the prev-front-end column's sign bit instead of
// its own padded byte). Rows materialize only at the API edge: Set takes
// a DayRecord and At returns one.
package logs

import "anycastcdn/internal/topology"

// DayRecord summarizes one client /24's production traffic on one day.
// It is the row view of the columnar log: cheap to materialize (a handful
// of scalar loads), never stored.
type DayRecord struct {
	ClientID uint64
	Day      int
	// FrontEnd is the front-end serving the client at the end of the day.
	FrontEnd topology.SiteID
	// Switched reports whether a route change occurred during the day;
	// PrevFrontEnd is the front-end before the change (it can equal
	// FrontEnd when only the ingress changed).
	Switched     bool
	PrevFrontEnd topology.SiteID
	// Queries is the number of requests the prefix issued that day.
	Queries int
}

// FrontEndChanged reports whether the record represents a visible
// front-end change (the client "landed on multiple front-ends" that day).
func (r DayRecord) FrontEndChanged() bool {
	return r.Switched && r.PrevFrontEnd != r.FrontEnd
}

// switchedBit marks a route change in the packed prev-front-end column.
// Site IDs are small non-negative integers, so the top bit is free.
const switchedBit = uint32(1) << 31

// Log is a columnar collection of day records, sized with Extend and
// filled with Set.
type Log struct {
	clientIDs []uint64
	days      []int32
	frontEnds []topology.SiteID
	// prevPacked holds PrevFrontEnd in the low 31 bits and Switched in
	// the top bit.
	prevPacked []uint32
	queries    []int32
}

// Extend appends n zero records and returns the index of the first, so a
// bulk producer that knows its exact row count can size the log once —
// one allocation per column — and then fill disjoint index ranges with
// Set. Set calls on distinct indices of an extended log are race-free.
func (l *Log) Extend(n int) int {
	base := len(l.clientIDs)
	if n <= 0 {
		return base
	}
	l.clientIDs = extend(l.clientIDs, n)
	l.days = extend(l.days, n)
	l.frontEnds = extend(l.frontEnds, n)
	l.prevPacked = extend(l.prevPacked, n)
	l.queries = extend(l.queries, n)
	return base
}

// extend returns a copy of s followed by n zero elements, allocated
// exactly to size.
func extend[T any](s []T, n int) []T {
	return append(make([]T, 0, len(s)+n), s...)[:len(s)+n]
}

// Set overwrites record i.
func (l *Log) Set(i int, r DayRecord) {
	p := uint32(r.PrevFrontEnd)
	if r.Switched {
		p |= switchedBit
	}
	l.clientIDs[i] = r.ClientID
	l.days[i] = int32(r.Day)
	l.frontEnds[i] = r.FrontEnd
	l.prevPacked[i] = p
	l.queries[i] = int32(r.Queries)
}

// Len returns the number of records.
func (l *Log) Len() int { return len(l.clientIDs) }

// At materializes record i as a row.
func (l *Log) At(i int) DayRecord {
	p := l.prevPacked[i]
	return DayRecord{
		ClientID:     l.clientIDs[i],
		Day:          int(l.days[i]),
		FrontEnd:     l.frontEnds[i],
		Switched:     p&switchedBit != 0,
		PrevFrontEnd: topology.SiteID(p &^ switchedBit),
		Queries:      int(l.queries[i]),
	}
}
