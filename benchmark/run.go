package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// result is what one pass over one workload reports: the contract's last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	problems  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Metrics: map[string]metricValue{}} }

func (r *result) add(round *roundResult) {
	r.Attempted += round.attempted
	r.Failed += round.failed
	r.problems = append(r.problems, round.problems...)
}

// fail counts one whole-run check that went wrong.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set stores the metrics of defs in the order given; values must have one
// entry per definition.
func (r *result) set(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		return fmt.Errorf("%d values for %d metrics", len(values), len(defs))
	}
	r.Correct = r.Failed == 0
	return nil
}

// config is what the command line fixes for every pass.
type config struct {
	seed    uint64
	seconds float64
	scale   float64
	// traceOut is the span file of the traced pass ("" writes none).
	traceOut string
}

func (c config) units(w *workload) int {
	n := int(float64(w.units) * c.scale)
	n -= n % w.threads
	return max(n, 2*w.threads)
}

// minRounds is the fewest rounds the untraced pass makes, however slow
// the host: with fewer replays there is no quiet tenth. It is a variable
// only so that the smoke test can shrink it.
var minRounds = 8

// roundSlices is how many slices an untraced round is cut into.
const roundSlices = 16

// hostFactor turns a pass's raw rate into a host-normalised one and, as a
// divisor, a raw time (the timed phase's numbers take it to the power of
// the workload's hostExp). It compares the nominal speed of the calibration
// kernel with the speed it showed in the quiet part of this pass, read
// the way the metrics are: at the quiet tenth of the samples.
func hostFactor(rounds []*roundResult) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.calib...)
	}
	return calibNominal / quantile(xs, 1-quiet)
}

// quietSetup is the set-up time of the quiet tenth of the rounds.
func quietSetup(rounds []*roundResult) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = r.setupS
	}
	return quantile(xs, quiet)
}

// endToEndPass is the untraced pass: rounds of a fixed unit count until
// the time is used up, then one composite of their quiet slices.
func endToEndPass(w *workload, cfg config) (*result, error) {
	units := cfg.units(w)
	streams := w.streams(cfg.seed, units)
	res := newResult()
	var rounds []*roundResult
	begin := time.Now()
	var longest time.Duration
	for {
		t0 := time.Now()
		r, err := runRound(w, streams, units, roundOpts{system: sysAdv, slices: roundSlices})
		if err != nil {
			return nil, err
		}
		res.add(r)
		rounds = append(rounds, r)
		longest = max(longest, time.Since(t0))
		if len(rounds) >= minRounds && time.Since(begin)+longest > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	checkRepeat(w, rounds, res)
	hw := rounds[0].hw
	factor := hostFactor(rounds)
	speed := math.Pow(factor, w.hostExp)
	c := compose(rounds)
	err := res.set(endToEnd, map[string]float64{
		"setup_s":                  quietSetup(rounds) / factor,
		"ops_per_s":                float64(units) / c.wallS * speed,
		"unit_p50_us":              c.percentile(0.50) / 1e3 / speed,
		"pt_bytes_per_mapped_page": float64(hw.ptBytes) / float64(hw.pages),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d rounds of %d units in %d slices, %d latency samples, raw ops/s %.0f, host factor %.3f, raw set-up %.4fs, p99 %.2fus\n",
		w.name, cfg.seed, len(rounds), units, roundSlices, len(c.lat), float64(units)/c.wallS, factor, quietSetup(rounds), c.percentile(0.99)/1e3/speed)
	return res, nil
}

// checkRepeat fails the run if simulated counts differ between rounds:
// every round replays the same streams on a fresh machine, so on one
// thread the counters and the page-table footprint must repeat exactly.
func checkRepeat(w *workload, rounds []*roundResult, res *result) {
	if w.threads != 1 {
		return
	}
	for i, r := range rounds[1:] {
		if r.counts() != rounds[0].counts() {
			res.fail("%s: counter deltas of round %d differ from round 0: %+v vs %+v", w.name, i+1, r.counts(), rounds[0].counts())
		}
		if r.hw != rounds[0].hw {
			res.fail("%s: page-table footprint of round %d differs from round 0: %+v vs %+v", w.name, i+1, r.hw, rounds[0].hw)
		}
	}
}

// maxTracedSpans bounds the traced round: its spans stay in memory and
// go to one file.
const maxTracedSpans = 300000

// layerPass is the traced pass. It runs untraced rounds for a third of
// the time (the counter deltas and the speed tracing is compared to), one
// traced round followed by the substrate probes on the same machine, and
// one round each on the two reference systems.
func layerPass(w *workload, cfg config) (*result, error) {
	units := cfg.units(w)
	streams := w.streams(cfg.seed, units)
	res := newResult()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// Untraced rounds: counts per unit, and the speed tracing is compared to.
	var plain []*roundResult
	for begin := time.Now(); len(plain) < 2 || time.Since(begin).Seconds() < cfg.seconds/3; {
		r, err := runRound(w, streams, units, roundOpts{system: sysAdv, slices: roundSlices})
		if err != nil {
			return nil, err
		}
		res.add(r)
		plain = append(plain, r)
	}
	checkRepeat(w, plain, res)
	p := plain[0]
	perUnit := func(n uint64) float64 { return float64(n) / float64(p.units) }
	factor := hostFactor(plain)
	speed := math.Pow(factor, w.hostExp)
	quietRound := compose(plain)
	plainOps := float64(units) / quietRound.wallS
	v := map[string]float64{
		"core.syscall.kernel_ns_per_unit":   perUnit(p.delta.KernelNanos),
		"core.syscall.faults_per_unit":      perUnit(p.delta.Faults),
		"core.syscall.soft_faults_per_unit": perUnit(p.delta.SoftFaults),
		"pt.pt_pages":                       float64(p.hw.ptPages),
		"mem.frames_per_unit":               perUnit(p.delta.FramesLocal + p.delta.FramesRemote),
		"mem.local_fraction":                ratio(p.delta.FramesLocal, p.delta.FramesLocal+p.delta.FramesRemote, 1),
		"tlb.lookups_per_unit":              perUnit(p.delta.Lookups),
		"tlb.hit_rate":                      ratio(p.delta.Hits, p.delta.Lookups, 0),
		"tlb.shootdowns_per_unit":           perUnit(p.delta.Shootdowns),
		"tlb.ipis_per_unit":                 perUnit(p.delta.IPIs),
		"tlb.filtered_per_unit":             perUnit(p.delta.Filtered),
		"tlb.deferred_per_unit":             perUnit(p.delta.TLBDeferred),
		"tlb.applied_per_unit":              perUnit(p.delta.Applied),
		"tlb.genbumps_per_unit":             perUnit(p.delta.GenBumps),
		"tlb.evictions_per_unit":            perUnit(p.delta.Evictions),
		"tlb.staledrops_per_unit":           perUnit(p.delta.StaleDrops),
		"rcu.deferred_per_unit":             perUnit(p.delta.RCUDeferred),
		"rcu.pending_at_end":                float64(p.delta.RCUPending),
		"host.go_alloc_bytes_per_unit":      perUnit(p.allocBytes),
		"host.go_mallocs_per_unit":          perUnit(p.mallocs),
		"host.ops_per_s_raw":                plainOps,
		"host.calib_factor":                 factor,
		"host.unit_p99_us":                  quietRound.percentile(0.99) / 1e3 / speed,
	}

	// Traced round, then the probes on its machine.
	tunits := min(units, maxTracedSpans/w.spans)
	tunits -= tunits % w.threads
	epoch := time.Now()
	tracers := make([]*tracer, w.threads)
	for t := range tracers {
		tracers[t] = newTracer(epoch, maxTracedSpans/w.threads*2, uint32(t)<<28)
	}
	traced, err := runRound(w, streams, tunits, roundOpts{system: sysAdv, slices: 1, tracers: tracers, after: func(e *Env) error {
		return runProbes(e, v, max(probeBlock, int(probeCalls*min(cfg.scale, 1))))
	}})
	if err != nil {
		return nil, err
	}
	res.add(traced)
	var spans []span
	for _, t := range tracers {
		spans = append(spans, t.spans...)
	}
	sum := summarize(spans)
	for _, p := range sum.problems[:min(len(sum.problems), 10)] {
		res.fail("%s trace: %s", w.name, p)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	overhead, ok := sum.lapOverheadNs()
	if !ok {
		overhead = idleLapNs()
	}
	mean := func(s step) float64 { return sum.meanNet(s, overhead) }
	v["core.syscall.mmap_ns"] = mean(stepSysMmap)
	v["core.syscall.munmap_ns"] = mean(stepSysMunmap)
	v["core.syscall.mprotect_ns"] = mean(stepSysMprotect)
	v["core.syscall.fault_ns"] = mean(stepSysFault)
	v["core.syscall.self_ns_per_unit"] = sum.syscallSelfNs()
	v["core.access_ns"] = mean(stepAccess)
	v["core.lock.acquire_ns"] = mean(stepAcquire)
	v["core.lock.acquire_p99_ns"] = 0
	if n := len(sum.acquire); n > 0 {
		slices.Sort(sum.acquire)
		v["core.lock.acquire_p99_ns"] = max(float64(sum.acquire[n*99/100])-overhead, 0)
	}
	v["core.lock.close_ns"] = mean(stepClose)
	v["core.cursor.query_ns"] = mean(stepQuery)
	v["core.cursor.mark_ns"] = mean(stepMark)
	v["core.cursor.map_ns"] = mean(stepMap)
	v["core.cursor.unmap_ns"] = mean(stepUnmap)
	v["core.cursor.protect_ns"] = mean(stepProtect)
	v["core.cursor.populate_ns_per_page"] = sum.perPageNet(stepPopulate, overhead)
	v["core.cursor.unmap_ns_per_page"] = sum.perPageNet(stepUnmap, overhead)
	v["cpusim.va_alloc_ns"] = mean(stepVAAlloc)
	v["cpusim.va_free_ns"] = mean(stepVAFree)
	v["cpusim.optick_ns"] = mean(stepOpTick)
	v["mem.alloc_frame_ns"] = mean(stepAllocFrame)
	v["host.lap_overhead_ns"] = overhead
	v["host.unit_self_share"] = float64(sum.unitSelfNanos) / float64(sum.unitNanos)
	v["host.trace_overhead_ratio"] = plainOps / (float64(traced.units) / traced.wallS())

	// Reference pass: the same streams on the other two systems, with the
	// factor of this pass's untraced rounds.
	for name, system := range map[string]string{"core.rw.ops_per_s": sysRW, "vma.ops_per_s": sysVMA} {
		r, err := runRound(w, streams, units, roundOpts{system: system, slices: 1})
		if err != nil {
			return nil, err
		}
		res.add(r)
		v[name] = float64(r.units) / r.wallS() * speed
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	v["host.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	v["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	if err := res.set(perLayer, v); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: traced %d units, %d spans, unit self share %.3f\n",
		w.name, cfg.seed, tunits, len(spans), v["host.unit_self_share"])
	return res, nil
}

func ratio(a, b uint64, whenIdle float64) float64 {
	if b == 0 {
		return whenIdle
	}
	return float64(a) / float64(b)
}

// probeCalls is how many calls each substrate probe is averaged over at
// scale 1.
const probeCalls = 100000

// runProbes times calls calls of every substrate function in blocks, so
// that the clock is read once per block and stays out of the number.
func runProbes(e *Env, v map[string]float64, calls int) error {
	list, cleanup, err := probes(e)
	if err != nil {
		return err
	}
	for _, p := range list {
		var total time.Duration
		for done := 0; done < calls; done += probeBlock {
			if p.prep != nil {
				if err := p.prep(); err != nil {
					return fmt.Errorf("probe %s: %w", p.name, err)
				}
			}
			t0 := time.Now()
			err := p.run()
			total += time.Since(t0)
			if p.done != nil {
				p.done()
			}
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.name, err)
			}
		}
		blocks := (calls + probeBlock - 1) / probeBlock
		v[p.name] = float64(total) / float64(blocks*probeBlock*p.per)
	}
	if err := cleanup(); err != nil {
		return fmt.Errorf("probe cleanup: %w", err)
	}
	t0 := time.Now()
	mcsHandoff(calls)
	v["locks.mcs_handoff_2t_ns"] = float64(time.Since(t0)) / float64(2*calls)
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		probeSink += uint64(time.Now().Nanosecond())
	}
	v["host.time_now_ns"] = float64(time.Since(t0)) / float64(calls)
	return nil
}
