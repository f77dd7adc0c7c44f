package workload

import (
	"fmt"
	"sync/atomic"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// AppResult is one application measurement.
type AppResult struct {
	Name    string
	Threads int
	// Work is the application-defined unit count (chunks, jobs, files).
	Work    int
	Elapsed time.Duration
	// KernelFrac is the fraction of wall time spent inside MM calls —
	// the kernel part of the Figure 16/17 breakdowns.
	KernelFrac float64
	// MappedBytes is the allocator's resident footprint at the end
	// (Figure 18).
	MappedBytes uint64
}

// Throughput returns work units per second.
func (r AppResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Work) / r.Elapsed.Seconds()
}

// userWork burns a calibrated amount of "application" CPU so that the
// kernel/user breakdown is meaningful.
func userWork(n int) uint64 {
	var acc uint64 = 0x9E3779B97F4A7C15
	for i := 0; i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	return acc
}

var sinkU64 atomic.Uint64

// startSplit starts timing one workload run and returns the function
// that ends it, reporting the wall time and the fraction of threads ×
// wall spent inside sys (Figures 16 and 17). It holds a kernel-time
// session on sys open for exactly that interval: outside one, MM calls
// read no clock and KernelNanos stands still.
func startSplit(sys mm.MM) (done func(threads int) (elapsed time.Duration, kernelFrac float64)) {
	st := sys.Stats()
	stop := st.TimeKernel()
	k0 := st.KernelNanos.Load()
	start := time.Now()
	return func(threads int) (time.Duration, float64) {
		elapsed := time.Since(start)
		stop()
		k := time.Duration(st.KernelNanos.Load() - k0)
		return elapsed, float64(k) / float64(elapsed*time.Duration(threads))
	}
}

// Metis runs the map-reduce allocation pattern of §6.4: every thread
// repeatedly grabs an 8-MiB chunk, touches each page while "hashing"
// it, and never returns memory to the kernel (the RadixVM-paper setup).
func Metis(machine *cpusim.Machine, sys mm.MM, threads, chunksPerThread int) (AppResult, error) {
	const chunkBytes = 8 << 20
	var failed atomic.Int64
	split := startSplit(sys)
	machine.Run(threads, func(core int) {
		for c := 0; c < chunksPerThread; c++ {
			va, err := sys.Mmap(core, chunkBytes, arch.PermRW, 0)
			if err != nil {
				failed.Add(1)
				return
			}
			for p := uint64(0); p < chunkBytes/arch.PageSize; p++ {
				if err := sys.Touch(core, va+arch.Vaddr(p*arch.PageSize), pt.AccessWrite); err != nil {
					failed.Add(1)
					return
				}
				sinkU64.Store(userWork(40)) // per-page map/hash work
			}
		}
	})
	elapsed, kfrac := split(threads)
	if failed.Load() != 0 {
		return AppResult{}, fmt.Errorf("workload: metis failed")
	}
	return AppResult{
		Name:       "metis",
		Threads:    threads,
		Work:       threads * chunksPerThread,
		Elapsed:    elapsed,
		KernelFrac: kfrac,
	}, nil
}

// Dedup runs the PARSEC dedup allocation pattern: a stream of variable
// chunks, most freed shortly after allocation, so the allocator churns —
// with ptmalloc that churn becomes mmap/munmap traffic (§6.4).
func Dedup(machine *cpusim.Machine, sys mm.MM, alloc Allocator, threads, jobsPerThread int) (AppResult, error) {
	// Chunk-size mix modelled on dedup's stages: mostly ~256 KiB blocks
	// (above the mmap threshold) with some small metadata.
	sizes := []uint64{256 << 10, 320 << 10, 192 << 10, 8 << 10, 512 << 10}
	var failed atomic.Int64
	split := startSplit(sys)
	machine.Run(threads, func(core int) {
		var held []struct {
			va arch.Vaddr
			sz uint64
		}
		for j := 0; j < jobsPerThread; j++ {
			sz := sizes[(core+j)%len(sizes)]
			va, err := alloc.Alloc(core, sz)
			if err != nil {
				failed.Add(1)
				return
			}
			// Compress/hash: touch a sample of pages.
			for off := uint64(0); off < sz; off += 4 * arch.PageSize {
				if err := sys.Touch(core, va+arch.Vaddr(off), pt.AccessWrite); err != nil {
					failed.Add(1)
					return
				}
				sinkU64.Store(userWork(80))
			}
			held = append(held, struct {
				va arch.Vaddr
				sz uint64
			}{va, sz})
			// Free all but a small window, like the pipeline draining.
			for len(held) > 2 {
				h := held[0]
				held = held[1:]
				alloc.Free(core, h.va, h.sz)
			}
		}
		for _, h := range held {
			alloc.Free(core, h.va, h.sz)
		}
	})
	elapsed, kfrac := split(threads)
	if failed.Load() != 0 {
		return AppResult{}, fmt.Errorf("workload: dedup failed")
	}
	return AppResult{
		Name:        "dedup+" + alloc.Name(),
		Threads:     threads,
		Work:        threads * jobsPerThread,
		Elapsed:     elapsed,
		KernelFrac:  kfrac,
		MappedBytes: alloc.MappedBytes(),
	}, nil
}

// Psearchy models the text-indexing workload: each thread processes
// files by allocating a file-sized buffer, filling it, scanning it, and
// freeing it (§6.4: ~2x over Linux at 64 threads with ptmalloc).
func Psearchy(machine *cpusim.Machine, sys mm.MM, alloc Allocator, threads, filesPerThread int) (AppResult, error) {
	fileSizes := []uint64{160 << 10, 96 << 10, 224 << 10, 128 << 10}
	var failed atomic.Int64
	split := startSplit(sys)
	machine.Run(threads, func(core int) {
		for f := 0; f < filesPerThread; f++ {
			sz := fileSizes[(core+f)%len(fileSizes)]
			va, err := alloc.Alloc(core, sz)
			if err != nil {
				failed.Add(1)
				return
			}
			for off := uint64(0); off < sz; off += arch.PageSize {
				if err := sys.Touch(core, va+arch.Vaddr(off), pt.AccessWrite); err != nil {
					failed.Add(1)
					return
				}
				sinkU64.Store(userWork(30)) // tokenizing
			}
			alloc.Free(core, va, sz)
		}
	})
	elapsed, kfrac := split(threads)
	if failed.Load() != 0 {
		return AppResult{}, fmt.Errorf("workload: psearchy failed")
	}
	return AppResult{
		Name:        "psearchy+" + alloc.Name(),
		Threads:     threads,
		Work:        threads * filesPerThread,
		Elapsed:     elapsed,
		KernelFrac:  kfrac,
		MappedBytes: alloc.MappedBytes(),
	}, nil
}

// JVMThreadCreation models the Figure-16 benchmark (the Android
// app-startup pattern): N Java threads start simultaneously; each maps
// its stack and thread-local area and faults them in during
// initialization. The metric is wall time until all threads finish
// initializing — lower is better.
func JVMThreadCreation(machine *cpusim.Machine, sys mm.MM, threads int) (AppResult, error) {
	const (
		stackBytes = 512 << 10 // JVM default-ish thread stack
		tlabBytes  = 256 << 10 // thread-local allocation buffer
	)
	var failed atomic.Int64
	split := startSplit(sys)
	machine.Run(threads, func(core int) {
		stack, err := sys.Mmap(core, stackBytes, arch.PermRW, 0)
		if err != nil {
			failed.Add(1)
			return
		}
		tlab, err := sys.Mmap(core, tlabBytes, arch.PermRW, 0)
		if err != nil {
			failed.Add(1)
			return
		}
		// Thread init: fault the stack top-down and the TLAB bottom-up.
		for off := uint64(0); off < stackBytes; off += arch.PageSize {
			if err := sys.Touch(core, stack+arch.Vaddr(stackBytes-arch.PageSize-off), pt.AccessWrite); err != nil {
				failed.Add(1)
				return
			}
		}
		for off := uint64(0); off < tlabBytes; off += arch.PageSize {
			if err := sys.Touch(core, tlab+arch.Vaddr(off), pt.AccessWrite); err != nil {
				failed.Add(1)
				return
			}
			sinkU64.Store(userWork(20)) // class-init work
		}
	})
	elapsed, kfrac := split(threads)
	if failed.Load() != 0 {
		return AppResult{}, fmt.Errorf("workload: jvm thread creation failed")
	}
	return AppResult{
		Name:       "jvm-threads",
		Threads:    threads,
		Work:       threads,
		Elapsed:    elapsed,
		KernelFrac: kfrac,
	}, nil
}

// Parsec models the PARSEC workloads that do NOT stress memory
// management (Figures 15 and 21): compute-bound kernels with a fixed
// working set touched once. Their normalized performance should be ~1
// on every system.
func Parsec(machine *cpusim.Machine, sys mm.MM, name string, threads, workUnits int) (AppResult, error) {
	const wsBytes = 4 << 20
	var failed atomic.Int64
	split := startSplit(sys)
	machine.Run(threads, func(core int) {
		va, err := sys.Mmap(core, wsBytes, arch.PermRW, 0)
		if err != nil {
			failed.Add(1)
			return
		}
		for off := uint64(0); off < wsBytes; off += arch.PageSize {
			if err := sys.Touch(core, va+arch.Vaddr(off), pt.AccessWrite); err != nil {
				failed.Add(1)
				return
			}
		}
		// The actual kernel: compute over the working set with only
		// occasional re-touches (TLB hits, no MM involvement).
		for u := 0; u < workUnits; u++ {
			sinkU64.Store(userWork(4000))
			if err := sys.Touch(core, va+arch.Vaddr(uint64(u)%wsBytes), pt.AccessRead); err != nil {
				failed.Add(1)
				return
			}
		}
	})
	elapsed, kfrac := split(threads)
	if failed.Load() != 0 {
		return AppResult{}, fmt.Errorf("workload: %s failed", name)
	}
	return AppResult{
		Name:       name,
		Threads:    threads,
		Work:       threads * workUnits,
		Elapsed:    elapsed,
		KernelFrac: kfrac,
	}, nil
}
