package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/topology"
)

// This file is the experiment layer's distribution seam. A worker runs
// sim.StreamShard over its client range and feeds each day to a
// ShardObserver — an ordinary StreamSuite over the shard world — which
// emits one encoded frame per day; the coordinator folds the frames, in
// shard order within each day, into its own StreamSuite with
// MergeShardDay. The aggregators' observe methods are the only place a
// passive-log rule lives: a frame carries aggregator state, never
// records, and each aggregator's state travels on the day it becomes
// final:
//
//   - after day 0: Figure 4's sample runs, the catchment rows and the
//     day-0 shed demand;
//   - after the last day: the TCP counters and Figure 7's per-client
//     state for the shard's range, and the Figure 8 sketch;
//   - every other day: the bare header.
//
// Order-sensitive float state (sample runs, catchment rows) is appended
// in shard order, which is global client order, so the merged suite
// replays exactly the float operations of a single-process run.
// Integer-valued state (counters, demand, sketch bins) is copied or
// summed, which is exact in any order. The merged suite therefore renders
// byte-identically to one that observed the whole stream.

// shardDayMagic versions the frame layout. Bump on any change so a
// coordinator never misreads a frame from a mismatched worker binary.
const shardDayMagic = 0xD8

// ShardObserver turns one shard's streamed days into encoded frames.
type ShardObserver struct {
	suite  *StreamSuite
	lo, hi int
}

// NewShardObserver prepares a worker-side observer for clients [lo, hi).
// The world's population must cover the range (the aggregators resolve
// record client IDs against it) — a full build or a sim.BuildShardWorld
// for the same range both work; lo/hi also stamp the frame headers the
// coordinator validates.
func NewShardObserver(cfg sim.Config, w *sim.World, lo, hi int) (*ShardObserver, error) {
	base := int(w.Population.Base)
	if lo < base || hi < lo || hi > base+len(w.Population.Clients) {
		return nil, fmt.Errorf("experiments: shard range [%d, %d) outside population [%d, %d)",
			lo, hi, base, base+len(w.Population.Clients))
	}
	return &ShardObserver{suite: NewStreamSuite(cfg, w), lo: lo, hi: hi}, nil
}

// AppendDay observes one streamed day (the sim.StreamShard callback's
// DayResult, local indices, global client IDs) and appends its frame to
// dst, returning the extended slice. Only the frames of day 0 and the
// last day carry state; every other day appends the bare header.
func (o *ShardObserver) AppendDay(d sim.DayResult, dst []byte) []byte {
	s := o.suite
	s.observe(d)

	dst = append(dst, shardDayMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Day))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.lo))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.hi))
	if d.Day == 0 {
		dst = s.fig4.appendState(dst)
		dst = s.cat.appendState(dst)
		dst = s.shed.appendState(dst)
		// Day 0 is final for Figure 4 and the catchments: free their
		// samples (their observe ignores every later day).
		*s.fig4 = figure4Agg{}
		s.cat.rows = nil
	}
	if d.Day == s.Cfg.Days-1 {
		dst = s.tcp.appendState(dst, o.lo, o.hi)
		dst = s.fig7.appendState(dst, o.lo, o.hi)
		dst = s.fig8.sketch.Encode(dst)
	}
	return dst
}

// MergeShardDay folds one shard's encoded frame into the suite. The
// caller must merge each day's shards in ascending shard order, and days
// in ascending day order — the orders under which the replayed float
// operations coincide exactly with a single-process run. The frame must
// be consumed exactly; day, lo and hi must match the frame header.
func (s *StreamSuite) MergeShardDay(day, lo, hi int, data []byte) error {
	if len(data) < 1+3*8 || data[0] != shardDayMagic {
		return fmt.Errorf("experiments: bad shard-day frame header")
	}
	data = data[1:]
	gotDay := binary.LittleEndian.Uint64(data)
	gotLo := binary.LittleEndian.Uint64(data[8:])
	gotHi := binary.LittleEndian.Uint64(data[16:])
	data = data[24:]
	if int(gotDay) != day || int(gotLo) != lo || int(gotHi) != hi {
		return fmt.Errorf("experiments: shard-day frame is (day %d, [%d, %d)), want (day %d, [%d, %d))",
			gotDay, gotLo, gotHi, day, lo, hi)
	}
	if lo < 0 || hi < lo || hi > len(s.tcp.totalDays) {
		return fmt.Errorf("experiments: shard range [%d, %d) outside %d clients", lo, hi, len(s.tcp.totalDays))
	}

	var err error
	if day == 0 {
		if data, err = s.fig4.mergeState(data); err != nil {
			return err
		}
		if data, err = s.cat.mergeState(data); err != nil {
			return err
		}
		if data, err = s.shed.mergeState(data, s.World.Deployment.Backbone.NumSites()); err != nil {
			return err
		}
	}
	if day == s.Cfg.Days-1 {
		if data, err = s.tcp.mergeState(data, lo, hi, s.Cfg.Days); err != nil {
			return err
		}
		if data, err = s.fig7.mergeState(data, lo, hi); err != nil {
			return err
		}
		if data, err = s.fig8.sketch.MergeEncoded(data); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("experiments: %d trailing bytes in shard-day frame", len(data))
	}
	return nil
}

func putFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func getU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("experiments: truncated shard-day frame")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

// getCount reads an element count and checks that data holds count
// elements of width bytes each. The check divides rather than multiplies,
// so a huge count cannot wrap past it.
func getCount(data []byte, width uint64) (uint64, []byte, error) {
	n, data, err := getU64(data)
	if err != nil {
		return 0, nil, err
	}
	if uint64(len(data))/width < n {
		return 0, nil, fmt.Errorf("experiments: shard-day frame too short for %d elements", n)
	}
	return n, data, nil
}

// getSite decodes a site ID, rejecting one outside the backbone so a
// corrupt frame cannot make a later report index out of range.
func getSite(data []byte, numSites int) (topology.SiteID, error) {
	id := binary.LittleEndian.Uint64(data)
	if id >= uint64(numSites) {
		return 0, fmt.Errorf("experiments: site %d outside %d sites", id, numSites)
	}
	return topology.SiteID(id), nil
}
