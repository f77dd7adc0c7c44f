package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/mm"
)

// Batch-grid geometry: each thread owns a private region of 512 chunks
// of 8 pages (4096 pages); one iteration processes the whole region.
const (
	batchChunkPages = 8
	batchChunks     = 512
	batchRegion     = batchChunks * batchChunkPages * arch.PageSize
)

// batchThreadBase spaces per-thread regions 1 GiB apart.
func batchThreadBase(thread int) arch.Vaddr {
	return arch.Vaddr(0x40_0000_0000 + uint64(thread)<<30)
}

// batchSupports reports whether a system can run a mix sequentially:
// madvise needs the mm.Madviser surface, churn/munmap need on-demand
// unmapping of arbitrary subranges (all systems provide it).
func batchSupports(s mm.MM, mix string) bool {
	if mix != "madvise" {
		return true
	}
	_, ok := s.(mm.Madviser)
	return ok
}

// runBatchWorker runs iters iterations of one mix on one thread,
// returning pages processed and the time spent in the timed section.
// batch <= 1 issues one syscall per op; larger batches enqueue on a
// per-core ring and Submit every batch ops (CortenMM spaces only).
func runBatchWorker(s mm.MM, mix string, thread, batch, iters int) (uint64, time.Duration, error) {
	base := batchThreadBase(thread)
	chunkB := uint64(batchChunkPages) * arch.PageSize
	chunkVA := func(i int) arch.Vaddr { return base + arch.Vaddr(uint64(i)*chunkB) }
	ca, _ := s.(*core.AddrSpace)

	var pages uint64
	var timed time.Duration

	// forEachChunk runs op over every chunk inside the timed section,
	// submitting every batch ops when batched.
	forEachChunk := func(op func(b *core.Batch, va arch.Vaddr) error) error {
		var b *core.Batch
		if batch > 1 {
			b = ca.NewBatch(thread)
		}
		t0 := time.Now()
		for i := 0; i < batchChunks; i++ {
			if err := op(b, chunkVA(i)); err != nil {
				return err
			}
			if b != nil && b.Pending() >= batch {
				for _, cqe := range b.Submit() {
					if cqe.Err != nil {
						return cqe.Err
					}
				}
			}
		}
		if b != nil {
			for _, cqe := range b.Submit() {
				if cqe.Err != nil {
					return cqe.Err
				}
			}
		}
		timed += time.Since(t0)
		return nil
	}
	mapAll := func() error {
		return s.MmapFixed(thread, base, uint64(batchRegion), arch.PermRW, mm.FlagPopulate)
	}
	repopulate := func() error {
		if ca != nil {
			return ca.PopulateRange(thread, base, uint64(batchRegion))
		}
		for off := uint64(0); off < uint64(batchRegion); off += arch.PageSize {
			if err := s.Store(thread, base+arch.Vaddr(off), 1); err != nil {
				return err
			}
		}
		return nil
	}

	for it := 0; it < iters; it++ {
		switch mix {
		case "munmap-heavy":
			if err := mapAll(); err != nil { // untimed
				return 0, 0, err
			}
			err := forEachChunk(func(b *core.Batch, va arch.Vaddr) error {
				if b != nil {
					return b.Munmap(va, chunkB)
				}
				return s.Munmap(thread, va, chunkB)
			})
			if err != nil {
				return 0, 0, err
			}
			pages += batchChunks * batchChunkPages

		case "churn":
			err := forEachChunk(func(b *core.Batch, va arch.Vaddr) error {
				if b != nil {
					return b.MmapFixed(va, chunkB, arch.PermRW, mm.FlagPopulate)
				}
				return s.MmapFixed(thread, va, chunkB, arch.PermRW, mm.FlagPopulate)
			})
			if err != nil {
				return 0, 0, err
			}
			err = forEachChunk(func(b *core.Batch, va arch.Vaddr) error {
				if b != nil {
					return b.Munmap(va, chunkB)
				}
				return s.Munmap(thread, va, chunkB)
			})
			if err != nil {
				return 0, 0, err
			}
			pages += 2 * batchChunks * batchChunkPages

		case "madvise":
			if it == 0 {
				if err := mapAll(); err != nil { // untimed
					return 0, 0, err
				}
			} else if err := repopulate(); err != nil { // untimed
				return 0, 0, err
			}
			adv := s.(mm.Madviser)
			err := forEachChunk(func(b *core.Batch, va arch.Vaddr) error {
				if b != nil {
					return b.Madvise(va, chunkB)
				}
				return adv.MadviseDontNeed(thread, va, chunkB)
			})
			if err != nil {
				return 0, 0, err
			}
			pages += batchChunks * batchChunkPages

		default:
			return 0, 0, fmt.Errorf("bench: unknown batch mix %q", mix)
		}
	}
	// madvise leaves the region mapped; drop it so repeats start clean.
	if mix == "madvise" {
		if err := s.Munmap(thread, base, uint64(batchRegion)); err != nil {
			return 0, 0, err
		}
	}
	return pages, timed, nil
}

// batch measures one grid point as a batch row: pages processed by
// the timed ops per second (mapped + unmapped for churn, unmapped for
// munmap-heavy, dropped for madvise) and, on CortenMM spaces, the batch
// pipeline's counters.
func (g *grid) batch(sys System, mix string, batch, threads, iters int) Row {
	return g.cell("batch", labels("mix", mix, "sys", sys, "threads", threads, "batch", batch), func() (map[string]float64, error) {
		env, err := NewEnv(sys, nil, machine(threads, framesFor(threads*batchChunks*batchChunkPages+4096)))
		if err != nil {
			return nil, err
		}
		if !batchSupports(env.Sys, mix) {
			return nil, errors.Join(fmt.Errorf("bench: %s does not support mix %s", sys, mix), env.Close())
		}
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			total   uint64
			slowest time.Duration
			werr    error
		)
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pages, timed, err := runBatchWorker(env.Sys, mix, th, batch, iters)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && werr == nil {
					werr = err
				}
				total += pages
				if timed > slowest {
					slowest = timed
				}
			}()
		}
		wg.Wait()
		m := map[string]float64{"pages_per_s": float64(total) / slowest.Seconds()}
		if ca, ok := env.Sys.(*core.AddrSpace); ok {
			st := ca.BatchStats()
			m["groups"] = float64(st.Groups)
			m["coalesced_locks"] = float64(st.CoalescedLocks)
			m["shootdowns"] = float64(st.Shootdowns)
			m["flush_ranges"] = float64(st.FlushRanges)
			m["coalesced_flushes"] = float64(st.CoalescedFlushes)
			m["max_ring_depth"] = float64(st.MaxRingDepth)
		}
		return m, errors.Join(werr, env.Close())
	})
}

// FigBatch runs the async-batch grid: batch size {1, 8, 64, 512} × op
// mix {munmap-heavy, churn, madvise} × {1, 4} threads. batch=1 rows are
// the one-op-per-call baseline and run on every modeled system (madvise
// only where supported); batched rows run on the CortenMM systems,
// whose submission ring coalesces the ops, and carry speedup: their
// pages_per_s over the same (system, mix, threads) at batch=1. The
// counter metrics prove the coalescing: at most one TLB fan-out per
// Submit, and the lock protocol run once per merged range group
// instead of once per op.
func FigBatch(o Options) ([]Row, error) {
	o = o.norm()
	iters := o.iters(3)
	var g grid
	for _, mix := range []string{"munmap-heavy", "churn", "madvise"} {
		for _, threads := range []int{1, 4} {
			for _, sys := range AllSystems {
				if mix == "madvise" && sys != Linux && sys != CortenRW && sys != CortenAdv {
					continue
				}
				if sys == NrOS {
					continue // NrOS replicates eagerly; subrange churn is not its model
				}
				base := g.batch(sys, mix, 1, threads, iters)
				if sys != CortenRW && sys != CortenAdv {
					continue
				}
				for _, batch := range []int{8, 64, 512} {
					r := g.batch(sys, mix, batch, threads, iters)
					r.Metrics["speedup"] = over(r.Metrics["pages_per_s"], base.Metrics["pages_per_s"])
				}
			}
		}
	}
	return g.rows, g.err
}

// checkBatch is the batch contract: on both CortenMM systems, one
// thread unmapping in batches of 64 beats one-op-per-call by 1.3× and
// pays at most one shootdown per merged group.
func checkBatch(rows []Row) error {
	gated := append(pick(rows, "batch", "mix", "munmap-heavy", "threads", 1, "batch", 64, "sys", CortenRW),
		pick(rows, "batch", "mix", "munmap-heavy", "threads", 1, "batch", 64, "sys", CortenAdv)...)
	if len(gated) != 2 {
		return fmt.Errorf("batch: expected 2 CortenMM munmap-heavy threads=1 batch=64 rows, got %d", len(gated))
	}
	for _, r := range gated {
		if s := r.Metrics["speedup"].Median; s < 1.3 {
			return fmt.Errorf("%s: speedup %.2f < 1.3", r, s)
		}
		if sd, g := r.Metrics["shootdowns"].Max, r.Metrics["groups"].Min; sd > g {
			return fmt.Errorf("%s: shootdowns %.0f > groups %.0f", r, sd, g)
		}
	}
	return nil
}
