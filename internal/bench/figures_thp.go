package bench

import (
	"errors"
	"fmt"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/workload"
)

// FigTHP measures what the compaction + THP pipeline buys (and costs)
// under external fragmentation: the zone is shattered by interleaved
// long/short-lived allocations, then a hot region is touched round
// after round. The region starts 100% 4-KiB mapped; coverage is the
// fraction of it mapped huge at the end, order9_rate the success rate
// of order-9 allocation probes against the still-fragmented zone.
// Pipeline off, coverage stays at zero and the probes can fail with
// free memory on hand (it cannot coalesce); pipeline on, background and
// direct compaction re-coalesce blocks and the khugepaged scanner
// promotes the hot spans. The pipeline is not free — migration copies
// pages and collapse double-copies the span — so touch throughput is
// reported honestly alongside coverage, with the scanner's promotions,
// reclaim's demotions of cold huge spans, the frames compaction
// migrated and the direct-compaction passes from the slow path.
func FigTHP(o Options) ([]Row, error) {
	o = o.norm()
	physFrames := max(4096, int(8192*o.Scale))
	rounds := max(6, int(12*o.Scale))
	var g grid
	for _, sys := range []System{CortenRW, CortenAdv} {
		for _, pipeline := range []bool{false, true} {
			g.cell("thp", labels("sys", sys, "pipeline", pipeline), func() (map[string]float64, error) {
				env, a, d, err := swapEnv(sys, physFrames)
				if err != nil {
					return nil, err
				}
				m, err := thpPoint(env.Machine, a, d, physFrames, rounds, pipeline)
				return m, errors.Join(err, env.Close())
			})
		}
	}
	return g.rows, g.err
}

// checkTHP is the THP contract, per system: the pipeline lifts huge
// coverage to at least half the hot region and at least twice the
// pipeline-off row's, and order-9 probes then succeed.
func checkTHP(rows []Row) error {
	on := pick(rows, "thp", "pipeline", true)
	if len(on) == 0 {
		return errors.New("thp: no pipeline=true row")
	}
	for _, r := range on {
		cov := r.Metrics["coverage"].Min
		for _, off := range pick(rows, "thp", "pipeline", false, "sys", r.Labels["sys"]) {
			if c := off.Metrics["coverage"].Max; cov < 2*c {
				return fmt.Errorf("%s: coverage %.2f < 2x pipeline-off %.2f", r, cov, c)
			}
		}
		if cov < 0.5 {
			return fmt.Errorf("%s: coverage %.2f < 0.5", r, cov)
		}
		if o9 := r.Metrics["order9_rate"].Min; o9 < 0.9 {
			return fmt.Errorf("%s: order9_rate %.2f < 0.9", r, o9)
		}
	}
	return nil
}

func thpPoint(m *cpusim.Machine, a *core.AddrSpace, d *core.Daemon, physFrames, rounds int, pipeline bool) (map[string]float64, error) {
	const spans = 4 // hot region size, in 2-MiB spans
	if pipeline {
		core.AttachCompaction(m, core.CompactConfig{
			ScanSpans:     32,
			FragThreshold: 0.5,
		})
	}

	// Shatter the zone: long-lived pages pin every block they touch.
	// Three quarters of physical memory passes through the fragmenter so
	// no pristine order-9 block survives it.
	frag, err := workload.Fragment(a, 0, physFrames*3/4, 8)
	if err != nil {
		return nil, err
	}
	defer frag.Release(a, 0)

	// The hot region: 4-KiB populated at a span-aligned address (low in
	// the VA space, clear of the allocator's arenas).
	span := arch.SpanBytes(2)
	regionBytes := uint64(spans) * span
	base := arch.Vaddr(span)
	if err := a.MmapFixed(0, base, regionBytes, arch.PermRW, mm.FlagPopulate); err != nil {
		return nil, err
	}

	// Hot loop: touch every page each round, with a little short-lived
	// churn alongside (the churn's map/unmap traffic also drives the
	// timer ticks the scanner and kcompactd ride).
	start := time.Now()
	touched := 0
	for r := 0; r < rounds; r++ {
		for off := uint64(0); off < regionBytes; off += arch.PageSize {
			if err := a.Store(0, base+arch.Vaddr(off), byte(r)); err != nil {
				return nil, err
			}
			touched++
		}
		// The long-lived pins are hot too (they model live objects, not
		// leaks) — reclaim must not quietly defragment the zone by
		// swapping them out; only migration can move them.
		for _, kv := range frag.Kept {
			if err := a.Store(0, kv, byte(r)); err != nil {
				return nil, err
			}
		}
		if err := workload.Churn(a, 0, 4, 16); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	out := map[string]float64{
		"pages_per_s": float64(touched) / elapsed.Seconds(),
		"coverage":    float64(a.HugeBytes(0)) / float64(regionBytes),
	}

	// Order-9 probes: can the still-fragmented zone serve huge-page
	// sized blocks now? Held until all probes ran, so one compacted
	// block cannot be recycled into every probe.
	probes := max(2, spans/2)
	var got []arch.PFN
	for i := 0; i < probes; i++ {
		if pfn, err := m.Phys.AllocFrames(0, arch.IndexBits, mem.KindAnon); err == nil {
			got = append(got, pfn)
		}
	}
	for _, pfn := range got {
		m.Phys.Put(0, pfn)
	}
	out["order9_rate"] = float64(len(got)) / float64(probes)

	// Pipeline counters are read after the probes: the probes themselves
	// trigger direct compaction, and those runs belong in the row.
	out["frag_index"] = m.Phys.FragIndex(0, arch.IndexBits)
	out["demotions"] = float64(a.Stats().Demotions.Load())
	out["migrated"] = float64(m.Phys.MigrationStats().Migrated)
	cs := d.Stats()
	out["promotions"] = float64(cs.Promotions)
	out["direct_runs"] = float64(cs.DirectRuns)
	return out, nil
}
