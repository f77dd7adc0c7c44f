// allocator: build a tiny user-space malloc on top of the public API,
// demonstrating the pattern behind the paper's dedup/psearchy results
// (§6.4): an allocator that returns memory eagerly (ptmalloc-style)
// turns application churn into mmap/munmap traffic, while a caching
// allocator (tcmalloc-style) trades memory for fewer syscalls. The
// example also exercises swap: cold cached spans are swapped out and
// transparently faulted back.
//
//	go run ./examples/allocator
package main

import (
	"fmt"
	"log"

	"cortenmm"
)

// bumpCache is a toy caching allocator: frees go to a per-size list.
type bumpCache struct {
	as   *cortenmm.AddrSpace
	free map[uint64][]cortenmm.Vaddr
}

func (b *bumpCache) alloc(size uint64) cortenmm.Vaddr {
	if l := b.free[size]; len(l) > 0 {
		va := l[len(l)-1]
		b.free[size] = l[:len(l)-1]
		return va
	}
	va, err := b.as.Mmap(0, size, cortenmm.PermRW, 0)
	if err != nil {
		log.Fatal(err)
	}
	return va
}

func (b *bumpCache) release(va cortenmm.Vaddr, size uint64) {
	b.free[size] = append(b.free[size], va)
}

func main() {
	machine := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2, Frames: 1 << 15})
	as, err := cortenmm.New(cortenmm.Options{
		Machine:  machine,
		Protocol: cortenmm.ProtocolAdv,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer as.Destroy(0)

	const span = 256 << 10 // 256 KiB spans, like a large-object allocator

	// Eager-return style: every free is a munmap.
	for i := 0; i < 8; i++ {
		va, err := as.Mmap(0, span, cortenmm.PermRW, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := as.Store(0, va, byte(i)); err != nil {
			log.Fatal(err)
		}
		if err := as.Munmap(0, va, span); err != nil {
			log.Fatal(err)
		}
	}
	st := as.Stats()
	fmt.Printf("eager allocator:  %d mmaps, %d munmaps (every free hits the MM)\n",
		st.Mmaps.Load(), st.Munmaps.Load())

	// Caching style: frees stay in the allocator.
	cache := &bumpCache{as: as, free: map[uint64][]cortenmm.Vaddr{}}
	m0, u0 := st.Mmaps.Load(), st.Munmaps.Load()
	var last cortenmm.Vaddr
	for i := 0; i < 8; i++ {
		va := cache.alloc(span)
		if err := as.Store(0, va, byte(i)); err != nil {
			log.Fatal(err)
		}
		cache.release(va, span)
		last = va
	}
	fmt.Printf("caching allocator: %d mmaps, %d munmaps (span reused: %v)\n",
		st.Mmaps.Load()-m0, st.Munmaps.Load()-u0, len(cache.free[span]) == 1)

	// The cached span is cold — swap it out and let a fault bring it back.
	n, err := as.SwapOut(0, last, span)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swapped out %d cold pages (blocks in use: %d)\n", n, machine.Phys.Swap().InUse())
	b, err := as.Load(0, last) // transparent swap-in
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after swap-in: data intact (%d), swap-ins: %d, blocks left: %d\n",
		b, as.Stats().SwapIns.Load(), machine.Phys.Swap().InUse())
}
