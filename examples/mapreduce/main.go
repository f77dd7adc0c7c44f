// mapreduce: the metis-style workload from the paper's evaluation
// (§6.4) run as a library example — every core allocates 8 MiB chunks,
// faults them in while "hashing", and never frees. The example runs the
// same job on CortenMM and on the Linux-style baseline and prints the
// throughput and kernel-time comparison that Figure 16 plots.
//
//	go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"cortenmm"
)

const (
	chunkBytes      = 8 << 20
	chunksPerWorker = 2
	workers         = 4
)

func runJob(name string, machine *cortenmm.Machine, sys cortenmm.MM) {
	var failed atomic.Int32
	var hashSink atomic.Uint64
	// Kernel time is only measured while someone asks for it.
	stopKernelTimer := sys.Stats().TimeKernel()
	start := time.Now()
	machine.Run(workers, func(core int) {
		for c := 0; c < chunksPerWorker; c++ {
			va, err := sys.Mmap(core, chunkBytes, cortenmm.PermRW, 0)
			if err != nil {
				failed.Add(1)
				return
			}
			var h uint64 = 14695981039346656037
			for off := uint64(0); off < chunkBytes; off += cortenmm.PageSize {
				if err := sys.Touch(core, va+cortenmm.Vaddr(off), cortenmm.AccessWrite); err != nil {
					failed.Add(1)
					return
				}
				h = (h ^ off) * 1099511628211 // the "map" work
			}
			hashSink.Store(h)
		}
	})
	elapsed := time.Since(start)
	stopKernelTimer()
	if failed.Load() != 0 {
		log.Fatalf("%s: job failed", name)
	}
	st := sys.Stats()
	pages := workers * chunksPerWorker * chunkBytes / cortenmm.PageSize
	fmt.Printf("%-12s %6.1f ms   %7.0f faults/ms   kernel %4.1f%%   (%d pages faulted)\n",
		name, float64(elapsed.Microseconds())/1000,
		float64(st.PageFaults.Load())/(float64(elapsed.Microseconds())/1000),
		100*float64(st.KernelNanos.Load())/float64(elapsed.Nanoseconds()*workers),
		pages)
}

func main() {
	fmt.Printf("metis-style map-reduce: %d workers x %d x 8 MiB chunks\n\n", workers, chunksPerWorker)

	m1 := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: workers, Frames: 1 << 16, TLB: cortenmm.TLBLATR})
	corten, err := cortenmm.New(cortenmm.Options{Machine: m1, Protocol: cortenmm.ProtocolAdv, PerCoreVA: true})
	if err != nil {
		log.Fatal(err)
	}
	runJob("cortenmm-adv", m1, corten)
	corten.Destroy(0)

	m2 := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: workers, Frames: 1 << 16})
	linux, err := cortenmm.NewLinuxBaseline(m2, nil)
	if err != nil {
		log.Fatal(err)
	}
	runJob("linux-vma", m2, linux)
	linux.Destroy(0)

	fmt.Println("\nCortenMM's page-fault transactions on disjoint chunks never contend;")
	fmt.Println("the Linux baseline serializes parts of the fault path on the VMA layer.")
}
