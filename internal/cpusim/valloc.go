package cpusim

import (
	"fmt"
	"slices"
	"sync"

	"cortenmm/internal/arch"
)

// User virtual-address range carved up by the allocator. The low 4 GiB
// are left for fixed-address mappings requested by applications; the top
// half of the 48-bit space is the kernel's.
const (
	UserLo = arch.Vaddr(1) << 32
	UserHi = arch.Vaddr(1) << 47
)

// ErrVAExhausted is returned when an allocator's arena is full.
var ErrVAExhausted = fmt.Errorf("cpusim: virtual address arena exhausted")

// arena is a bump allocator with size-segregated free lists. It has
// handed out exactly [base, next); base and limit never change. The
// free ranges are pairwise disjoint: freeMap holds one bit per page from
// base up, set while the page is in a free range, so freeRange can
// refuse a range that overlaps another in a few word operations. Each
// size's list is held by pointer, so a pop or a push writes through it
// and the map is assigned only the first time a size is freed.
type arena struct {
	mu      sync.Mutex
	base    arch.Vaddr
	next    arch.Vaddr
	limit   arch.Vaddr
	free    map[uint64]*[]arch.Vaddr
	freeMap []uint64
}

// eachWord calls fn on every freeMap word that [va, va+size) touches,
// with the mask of the range's pages in that word.
func (a *arena) eachWord(va arch.Vaddr, size uint64, fn func(w *uint64, mask uint64)) {
	lo := uint64(va-a.base) / arch.PageSize
	last := lo + size/arch.PageSize - 1
	for i := lo / 64; i <= last/64; i++ {
		from, to := max(lo, i*64)%64, min(last, i*64+63)%64
		fn(&a.freeMap[i], ^uint64(0)<<from&(^uint64(0)>>(63-to)))
	}
}

func newArena(base, limit arch.Vaddr) arena {
	return arena{base: base, next: base, limit: limit, free: make(map[uint64]*[]arch.Vaddr)}
}

func (a *arena) alloc(size uint64) (arch.Vaddr, error) {
	a.mu.Lock()
	if list := a.free[size]; list != nil && len(*list) > 0 {
		n := len(*list) - 1
		va := (*list)[n]
		*list = (*list)[:n]
		a.eachWord(va, size, func(w *uint64, mask uint64) { *w &^= mask })
		a.mu.Unlock()
		return va, nil
	}
	va := a.next
	if uint64(va)+size > uint64(a.limit) {
		a.mu.Unlock()
		return 0, ErrVAExhausted
	}
	a.next += arch.Vaddr(size)
	a.mu.Unlock()
	return va, nil
}

// freeRange recycles [va, va+size) if it lies wholly inside what this
// arena has handed out and touches no range that is already free, and
// ignores it otherwise. Callers free whatever range they found fully
// allocated in the page table, so these checks are what keep
// fixed-address mappings out of the free lists: below UserLo or beyond
// the bump pointer they fail the first, over recycled addresses (which
// stay free while the fixed mapping lives there) the second. No address
// is therefore ever in two free ranges, or handed to two holders.
func (a *arena) freeRange(va arch.Vaddr, size uint64) {
	a.mu.Lock()
	if va >= a.base && size != 0 && va+arch.Vaddr(size) <= a.next {
		if words := int(uint64(a.next-a.base)/arch.PageSize+63) / 64; words > len(a.freeMap) {
			a.freeMap = append(a.freeMap, make([]uint64, words-len(a.freeMap))...)
		}
		var taken uint64
		a.eachWord(va, size, func(w *uint64, mask uint64) { taken |= *w & mask })
		if taken == 0 {
			a.eachWord(va, size, func(w *uint64, mask uint64) { *w |= mask })
			list := a.free[size]
			if list == nil {
				list = new([]arch.Vaddr)
				a.free[size] = list
			}
			*list = append(*list, va)
		}
	}
	a.mu.Unlock()
}

func (a *arena) cloneInto(dst *arena) {
	a.mu.Lock()
	defer a.mu.Unlock()
	dst.base, dst.next, dst.limit = a.base, a.next, a.limit
	dst.free = make(map[uint64]*[]arch.Vaddr, len(a.free))
	for sz, list := range a.free {
		cp := slices.Clone(*list)
		dst.free[sz] = &cp
	}
	dst.freeMap = slices.Clone(a.freeMap)
}

// PerCoreVA hands out virtual-address ranges for anonymous mmaps (sizes
// are page-aligned byte counts). It is CortenMM's per-core allocator
// (§4.5): each core owns a private share of the address space, so
// concurrent allocation and freeing never contend, and frees route back
// to the owning arena by address. With one arena it is the single shared
// allocator the adv_base ablation (§6.4) falls back to — roughly what a
// naive kernel does.
type PerCoreVA struct {
	arenas []arena
	lo     arch.Vaddr
	span   uint64
}

// NewPerCoreVA splits [UserLo, UserHi) evenly into n arenas.
func NewPerCoreVA(n int) *PerCoreVA {
	span := (uint64(UserHi) - uint64(UserLo)) / uint64(n)
	span &^= arch.PageSize - 1
	p := &PerCoreVA{arenas: make([]arena, n), lo: UserLo, span: span}
	for i := range p.arenas {
		base := UserLo + arch.Vaddr(uint64(i)*span)
		p.arenas[i] = newArena(base, base+arch.Vaddr(span))
	}
	return p
}

// Alloc hands out a range from the calling core's arena — the last one
// for cores beyond the arena count, so one arena serves every core.
func (p *PerCoreVA) Alloc(core int, size uint64) (arch.Vaddr, error) {
	return p.arenas[min(core, len(p.arenas)-1)].alloc(size)
}

// Free recycles a range, returning it to the arena that owns the address
// (which may differ from the freeing core's). The allocator is the
// authority on what it owns: a range it never handed out (a
// fixed-address mapping), or one overlapping a range that is already
// free (a fixed mapping placed over recycled addresses and unmapped
// again), is ignored.
func (p *PerCoreVA) Free(core int, va arch.Vaddr, size uint64) {
	if va < p.lo {
		return
	}
	owner := min(int(uint64(va-p.lo)/p.span), len(p.arenas)-1)
	p.arenas[owner].freeRange(va, size)
}

// Clone duplicates the allocator state; fork needs the child's allocator
// to consider every parent range in use.
func (p *PerCoreVA) Clone() *PerCoreVA {
	c := &PerCoreVA{arenas: make([]arena, len(p.arenas)), lo: p.lo, span: p.span}
	for i := range p.arenas {
		p.arenas[i].cloneInto(&c.arenas[i])
	}
	return c
}
