package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// roundResult is everything one round measured.
type roundResult struct {
	setupS float64 // build machine + space + standing state + warm-up unit
	units  int
	// sliceNs is the wall time of each slice of the timed phase. Every
	// round cuts the same streams into the same slices, so slice k is the
	// same work in every round.
	sliceNs []int64
	// lats is every unit's latency in ns, per thread, in unit order.
	lats [][]int32
	// calib holds the calibration sample taken after each slice.
	calib     []float64
	attempted int
	failed    int
	problems  []string // what failed, for the diagnostics
	hw        highWater
	// delta is the counters' change over the timed phase; its RCUPending
	// is the absolute reading at the end.
	delta      Counters
	allocBytes uint64
	mallocs    uint64
}

// wallS is the length of the timed phase, calibration left out.
func (r *roundResult) wallS() float64 {
	var ns int64
	for _, d := range r.sliceNs {
		ns += d
	}
	return float64(ns) / 1e9
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sliceBounds is the range of one thread's units that slice k of n covers.
func sliceBounds(per, k, n int) (lo, hi int) { return k * per / n, (k + 1) * per / n }

// roundOpts says how a round differs from the plain untraced one.
type roundOpts struct {
	system string
	// slices is how many slices the timed phase is cut into, each
	// followed by a calibration sample (1: no cut and no sample).
	slices int
	// tracers, one per thread, make the timed phase a traced replay.
	tracers []*tracer
	// after runs on the warmed machine once the timed phase is over and
	// its counters are read, before anything is verified or torn down.
	after func(e *Env) error
}

// runRound builds a fresh machine, runs units units of w's streams and
// verifies the machine. An error means the round could not run at all;
// wrong results are counted in the result.
func runRound(w *workload, streams [][]uint16, units int, o roundOpts) (*roundResult, error) {
	res := &roundResult{units: units}
	// Collect before set-up and again before the timed phase, so that
	// neither pays for garbage it did not make (the previous round's
	// machine, then the set-up's own).
	runtime.GC()
	t0 := time.Now()
	e, err := NewEnv(o.system)
	if err != nil {
		return nil, err
	}
	inst := w.start(streams)
	if res.hw, err = inst.setup(e, e.Sys); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.setupS = time.Since(t0).Seconds()

	per := units / w.threads
	res.lats = make([][]int32, w.threads)
	spaces := make([]Space, w.threads)
	for t := range spaces {
		res.lats[t] = make([]int32, per)
		spaces[t] = e.Sys
		if o.tracers != nil {
			spaces[t] = newTracedSpace(e, o.tracers[t])
		}
	}
	failed := make([]int, w.threads)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := e.Counters()
	for k := 0; k < o.slices; k++ {
		lo, hi := sliceBounds(per, k, o.slices)
		start := time.Now()
		if w.threads == 1 {
			failed[0] += timedLoop(inst, spaces[0], 0, res.lats[0], lo, hi)
		} else {
			var wg sync.WaitGroup
			for t := 0; t < w.threads; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					failed[t] += timedLoop(inst, spaces[t], t, res.lats[t], lo, hi)
				}()
			}
			wg.Wait()
		}
		res.sliceNs = append(res.sliceNs, int64(time.Since(start)))
		if o.slices > 1 {
			res.calib = append(res.calib, calibrate())
		}
	}
	c1 := e.Counters()
	runtime.ReadMemStats(&m1)
	res.delta = c1.minus(c0)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs

	res.attempted = per*w.threads*w.checks + e.checks()
	for t := range failed {
		res.failed += failed[t]
		if w.probeBit != 0 {
			for _, x := range streams[t][:per] {
				if x&w.probeBit != 0 {
					res.attempted++
				}
			}
		}
	}
	if err := inst.err(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	if o.after != nil {
		if err := o.after(e); err != nil {
			return nil, err
		}
	}
	for _, err := range e.Verify() {
		res.fail("%s: %v", w.name, err)
	}
	if err := e.Close(); err != nil {
		res.fail("%s: %v", w.name, err)
	}
	return res, nil
}

// timedLoop runs units lo to hi of one thread back to back. One clock
// reading per unit boundary both ends a unit and starts the next, so the
// latencies add up to the loop's wall time.
func timedLoop(inst instance, s Space, core int, lat []int32, lo, hi int) (failed int) {
	ts, _ := s.(*tracedSpace)
	epoch := time.Now()
	prev := time.Duration(0)
	for u := lo; u < hi; u++ {
		if ts != nil {
			ts.setUnit(u)
			ts.tr.beginUnit(u)
		}
		failed += inst.unit(s, core, u)
		if ts != nil {
			ts.tr.endUnit()
		}
		now := time.Since(epoch)
		lat[u] = int32(now - prev)
		prev = now
	}
	return failed
}

// minus subtracts the cumulative counters; gauges keep c's reading.
func (c Counters) minus(o Counters) Counters {
	return Counters{
		KernelNanos: c.KernelNanos - o.KernelNanos, Faults: c.Faults - o.Faults, SoftFaults: c.SoftFaults - o.SoftFaults,
		Lookups: c.Lookups - o.Lookups, Hits: c.Hits - o.Hits, Shootdowns: c.Shootdowns - o.Shootdowns,
		IPIs: c.IPIs - o.IPIs, Filtered: c.Filtered - o.Filtered, TLBDeferred: c.TLBDeferred - o.TLBDeferred,
		Applied: c.Applied - o.Applied, GenBumps: c.GenBumps - o.GenBumps, Evictions: c.Evictions - o.Evictions,
		StaleDrops: c.StaleDrops - o.StaleDrops, RCUDeferred: c.RCUDeferred - o.RCUDeferred,
		FramesLocal: c.FramesLocal - o.FramesLocal, FramesRemote: c.FramesRemote - o.FramesRemote,
		RCUPending: c.RCUPending, PTPagesAlive: c.PTPagesAlive,
	}
}

// counts is delta without its one time-valued field: what must repeat
// exactly from round to round on a one-thread workload.
func (r *roundResult) counts() Counters {
	c := r.delta
	c.KernelNanos = 0
	return c
}

// quantile q of xs, which it sorts, interpolating between neighbours.
func quantile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// The host has disturbed periods, from a second to minutes long, in
// which the program loses up to a third of its speed. Every round does
// the same work, so what differs between the replays of one piece of it
// is the host. A time-valued metric is therefore read from the quiet
// replays: the tenth of them on the fast side, which is the speed of the
// undisturbed host as long as a tenth of a pass is undisturbed.
const quiet = 0.10

// composite is one round's worth of work assembled from quiet replays.
type composite struct {
	wallS float64
	lat   []int32 // every unit's latency in its quiet replay, sorted
}

// compose assembles the composite round. On one thread the simulator is
// deterministic, so unit u is the same work in every round: each unit
// takes its latency at the quiet quantile of its replays, and the wall
// time is their sum. What a unit costs in every round stays in, however
// rare the unit; what hits it in some rounds only (the host, and the Go
// collector's assists and pauses) is left out. With more threads the
// interleaving differs from round to round and lock waits are the
// signal, so whole slices are picked instead: for each, the round that
// ran it at the quiet quantile of its durations.
func compose(rounds []*roundResult) composite {
	var c composite
	first := rounds[0]
	pick := int(quiet*float64(len(rounds)-1) + 0.5)
	if len(first.lats) == 1 {
		c.lat = make([]int32, len(first.lats[0]))
		replays := make([]int32, len(rounds))
		var ns int64
		for u := range c.lat {
			for i, r := range rounds {
				replays[i] = r.lats[0][u]
			}
			slices.Sort(replays)
			c.lat[u] = replays[pick]
			ns += int64(replays[pick])
		}
		c.wallS = float64(ns) / 1e9
	} else {
		order := slices.Clone(rounds)
		for k := range first.sliceNs {
			slices.SortFunc(order, func(a, b *roundResult) int { return cmp.Compare(a.sliceNs[k], b.sliceNs[k]) })
			r := order[pick]
			c.wallS += float64(r.sliceNs[k]) / 1e9
			for _, lat := range r.lats {
				lo, hi := sliceBounds(len(lat), k, len(first.sliceNs))
				c.lat = append(c.lat, lat[lo:hi]...)
			}
		}
	}
	slices.Sort(c.lat)
	return c
}

// percentile of the composite's unit latencies, in ns.
func (c *composite) percentile(p float64) float64 {
	return float64(c.lat[min(int(p*float64(len(c.lat))), len(c.lat)-1)])
}
