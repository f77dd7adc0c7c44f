// Package workload implements the paper's evaluation workloads: the
// five Table-3 microbenchmarks with low/high-contention variants, the
// real-world application stand-ins (metis, dedup, psearchy, JVM thread
// creation, PARSEC compute kernels), the LMbench fork suite, and the
// user-level allocator simulators (ptmalloc vs tcmalloc) whose munmap
// behaviour drives the dedup/psearchy results (§6.4).
package workload

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
)

// Allocator is a user-space malloc implementation running on top of an
// MM system.
type Allocator interface {
	Name() string
	Alloc(core int, size uint64) (arch.Vaddr, error)
	Free(core int, va arch.Vaddr, size uint64)
	// MappedBytes reports address space currently held from the OS —
	// the resident-set proxy Figure 18 plots.
	MappedBytes() uint64
}

// mmapThreshold mirrors glibc's M_MMAP_THRESHOLD: chunks at least this
// big go straight to mmap and back to munmap on free.
const mmapThreshold = 128 << 10

// arenaChunk is the carve-out unit for small allocations.
const arenaChunk = 1 << 20

// PtMalloc models glibc's ptmalloc: large chunks are mmap'd directly
// and munmap'd eagerly on free — the behaviour that hammers the OS with
// unmaps and exposes mmap_lock contention in dedup (§6.4).
type PtMalloc struct {
	sys    mm.MM
	mu     sync.Mutex
	arenas map[int]*arena // per-core small-object arenas
	mapped atomic.Uint64
}

type arena struct {
	cur  arch.Vaddr
	left uint64
	free map[uint64][]arch.Vaddr
}

// NewPtMalloc builds a ptmalloc-style allocator over sys.
func NewPtMalloc(sys mm.MM) *PtMalloc {
	return &PtMalloc{sys: sys, arenas: make(map[int]*arena)}
}

// Name implements Allocator.
func (p *PtMalloc) Name() string { return "ptmalloc" }

// Alloc implements Allocator.
func (p *PtMalloc) Alloc(core int, size uint64) (arch.Vaddr, error) {
	size = (size + 63) &^ 63
	if size >= mmapThreshold {
		va, err := p.sys.Mmap(core, size, arch.PermRW, 0)
		if err == nil {
			p.mapped.Add(pageCeil(size))
		}
		return va, err
	}
	p.mu.Lock()
	a := p.arenas[core]
	if a == nil {
		a = &arena{free: make(map[uint64][]arch.Vaddr)}
		p.arenas[core] = a
	}
	if list := a.free[size]; len(list) > 0 {
		va := list[len(list)-1]
		a.free[size] = list[:len(list)-1]
		p.mu.Unlock()
		return va, nil
	}
	if a.left < size {
		p.mu.Unlock()
		va, err := p.sys.Mmap(core, arenaChunk, arch.PermRW, 0)
		if err != nil {
			return 0, err
		}
		p.mapped.Add(arenaChunk)
		p.mu.Lock()
		a.cur, a.left = va, arenaChunk
	}
	va := a.cur
	a.cur += arch.Vaddr(size)
	a.left -= size
	p.mu.Unlock()
	return va, nil
}

// Free implements Allocator: eager munmap for large chunks, freelist
// for small ones (arenas are never trimmed, like glibc in steady state).
func (p *PtMalloc) Free(core int, va arch.Vaddr, size uint64) {
	size = (size + 63) &^ 63
	if size >= mmapThreshold {
		_ = p.sys.Munmap(core, va, pageCeil(size))
		p.mapped.Add(-pageCeil(size))
		return
	}
	p.mu.Lock()
	if a := p.arenas[core]; a != nil {
		a.free[size] = append(a.free[size], va)
	}
	p.mu.Unlock()
}

// MappedBytes implements Allocator.
func (p *PtMalloc) MappedBytes() uint64 { return p.mapped.Load() }

// TcMalloc models tcmalloc: per-core caches hold freed spans of every
// size and nothing is returned to the OS, "working around the deficient
// scalability of Linux memory management" (§6.4) at a memory cost.
// With Decommit set (tcmalloc's aggressive-decommit mode) freed spans
// keep their address range but release the physical pages through
// madvise(MADV_DONTNEED), when the MM supports it.
type TcMalloc struct {
	sys    mm.MM
	caches []tcCache
	mapped atomic.Uint64
	// Decommit releases physical pages of cached spans via madvise.
	Decommit bool
}

type tcCache struct {
	mu   sync.Mutex
	free map[uint64][]arch.Vaddr
	_    [40]byte
}

// NewTcMalloc builds a tcmalloc-style allocator over sys for n cores.
func NewTcMalloc(sys mm.MM, cores int) *TcMalloc {
	t := &TcMalloc{sys: sys, caches: make([]tcCache, cores)}
	for i := range t.caches {
		t.caches[i].free = make(map[uint64][]arch.Vaddr)
	}
	return t
}

// Name implements Allocator.
func (t *TcMalloc) Name() string { return "tcmalloc" }

// Alloc implements Allocator.
func (t *TcMalloc) Alloc(core int, size uint64) (arch.Vaddr, error) {
	size = pageCeil(size)
	c := &t.caches[core]
	c.mu.Lock()
	if list := c.free[size]; len(list) > 0 {
		va := list[len(list)-1]
		c.free[size] = list[:len(list)-1]
		c.mu.Unlock()
		return va, nil
	}
	c.mu.Unlock()
	va, err := t.sys.Mmap(core, size, arch.PermRW, 0)
	if err == nil {
		t.mapped.Add(size)
	}
	return va, err
}

// Free implements Allocator: spans go to the local cache, never back to
// the OS (except their physical pages, in Decommit mode).
func (t *TcMalloc) Free(core int, va arch.Vaddr, size uint64) {
	size = pageCeil(size)
	if t.Decommit {
		if adv, ok := t.sys.(mm.Madviser); ok {
			_ = adv.MadviseDontNeed(core, va, size)
		}
	}
	c := &t.caches[core]
	c.mu.Lock()
	c.free[size] = append(c.free[size], va)
	c.mu.Unlock()
}

// MappedBytes implements Allocator.
func (t *TcMalloc) MappedBytes() uint64 { return t.mapped.Load() }

func pageCeil(n uint64) uint64 { return (n + arch.PageSize - 1) &^ (arch.PageSize - 1) }
