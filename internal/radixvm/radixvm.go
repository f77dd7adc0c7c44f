// Package radixvm is a baseline modelled on RadixVM (Clements et al.,
// EuroSys'13): the address space is a radix-indexed mapping structure
// with fine-grained range locking, and every core materializes its own
// page-table replica on demand. Disjoint operations touch disjoint
// shards and disjoint per-core trees, so mmap/munmap/fault scale — at
// the cost of replicating page-table memory per core, which is exactly
// the overhead Figure 22 of the CortenMM paper charges it with.
package radixvm

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

const nShards = 1024

// mapping is the per-page state in the radix stand-in.
type mapping struct {
	perm  arch.Perm
	frame arch.PFN // NoPFN until first fault
	cores uint64   // mask of cores whose replica maps the page
}

// shard guards one slice of the address space (2-MiB granularity), the
// analog of locking one radix-tree subtree.
type shard struct {
	mu    sync.Mutex
	pages map[arch.Vaddr]*mapping
	_     [32]byte
}

// replica is one core's private page table.
type replica struct {
	mu   sync.Mutex
	tree *pt.Tree
}

// Space is a RadixVM-style address space.
type Space struct {
	m    *cpusim.Machine
	isa  arch.ISA
	asid tlb.ASID
	dead atomic.Bool // Destroy ran: the ASID has been freed

	shards   []shard
	replicas []*replica
	brk      atomic.Uint64
	stats    mm.Stats
}

// New creates an empty RadixVM-style space with one page-table replica
// per core.
func New(m *cpusim.Machine, isa arch.ISA) (*Space, error) {
	if isa == nil {
		isa = arch.X8664(false)
	}
	s := &Space{
		m:        m,
		isa:      isa,
		asid:     m.AllocASID(),
		shards:   make([]shard, nShards),
		replicas: make([]*replica, m.Cores),
	}
	for i := range s.shards {
		s.shards[i].pages = make(map[arch.Vaddr]*mapping)
	}
	for c := range s.replicas {
		t, err := pt.NewTree(m.Phys, isa, m.Cores, false)
		if err != nil {
			return nil, err
		}
		s.replicas[c] = &replica{tree: t}
	}
	s.brk.Store(uint64(cpusim.UserLo))
	return s, nil
}

func (s *Space) shardOf(va arch.Vaddr) *shard {
	return &s.shards[uint64(va)>>21%nShards]
}

// Name implements mm.MM.
func (s *Space) Name() string { return "radixvm" }

// ASID implements mm.MM.
func (s *Space) ASID() tlb.ASID { return s.asid }

// Stats implements mm.MM.
func (s *Space) Stats() *mm.Stats { return &s.stats }

// Features implements mm.MM: the subset our simulation carries (the real
// RadixVM also supports COW and file mappings; they are not needed by
// any experiment this baseline appears in).
func (s *Space) Features() mm.Features {
	return mm.Features{OnDemandPaging: true, NUMAPolicy: true}
}

// Mmap implements mm.MM: insert per-page entries into the radix shards.
// The VA bump is a single atomic add, so allocation itself scales.
func (s *Space) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return 0, err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	size = (size + arch.PageSize - 1) &^ (arch.PageSize - 1)
	va := arch.Vaddr(s.brk.Add(size) - size)
	if va+arch.Vaddr(size) > cpusim.UserHi {
		return 0, cpusim.ErrVAExhausted
	}
	s.insertRange(va, size, perm)
	if fl&mm.FlagPopulate != 0 {
		for off := uint64(0); off < size; off += arch.PageSize {
			if err := s.Touch(core, va+arch.Vaddr(off), pt.AccessRead); err != nil {
				return 0, err
			}
		}
	}
	return va, nil
}

// MmapFixed implements mm.MM.
func (s *Space) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		_, exists := sh.pages[page]
		sh.mu.Unlock()
		if exists {
			return mm.ErrExists
		}
	}
	s.insertRange(va, size, perm)
	return nil
}

func (s *Space) insertRange(va arch.Vaddr, size uint64, perm arch.Perm) {
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		sh.pages[page] = &mapping{perm: perm, frame: arch.NoPFN}
		sh.mu.Unlock()
	}
}

// MmapFile is not carried by this baseline (no experiment needs it).
func (s *Space) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return 0, err
	}
	return 0, mm.ErrNotSupported
}

// Munmap implements mm.MM: per-page shard removal plus targeted clearing
// of exactly the replicas that materialized each page — RadixVM's
// scalable unmap.
func (s *Space) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Munmaps.Add(1)
	s.m.OpTick(core)
	var freed []arch.PFN
	var flush []tlb.Range
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		mp, ok := sh.pages[page]
		if ok {
			delete(sh.pages, page)
			s.eachReplica(mp, func(t *pt.Tree) { s.clearLeaf(t, page) })
		}
		sh.mu.Unlock()
		if !ok || mp.frame == arch.NoPFN {
			continue
		}
		freed = append(freed, mp.frame)
		// Coalesce adjacent pages into one invalidation range.
		if n := len(flush); n > 0 && flush[n-1].Hi == page {
			flush[n-1].Hi = page + arch.PageSize
		} else {
			flush = append(flush, tlb.Range{Lo: page, Hi: page + arch.PageSize})
		}
	}
	if len(flush) > 0 {
		// Batches of disjoint ranges are cheap now that a shootdown is a
		// bounded number of generation records per core (the TLB layer
		// collapses dense batches to their envelope), so there is no
		// full-ASID escape hatch for large batches anymore.
		s.m.TLB.Shootdown(core, s.asid, flush, false)
		// An access that translated before the shootdown may still be
		// reading one of them: the RCU monitor frees.
		s.m.Defer(core, func() { s.m.Phys.PutList(core, freed) })
	}
	return nil
}

// Mprotect implements mm.MM.
func (s *Space) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mprotects.Add(1)
	s.m.OpTick(core)
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		mp, ok := sh.pages[page]
		if ok {
			mp.perm = perm
			s.eachReplica(mp, func(t *pt.Tree) { s.setLeaf(core, t, page, mp.frame, perm) })
		}
		sh.mu.Unlock()
	}
	s.m.TLB.ShootdownAll(core, s.asid, true)
	return nil
}

// Msync implements mm.MM (no file mappings: nothing to do).
func (s *Space) Msync(core int, va arch.Vaddr, size uint64) error {
	return mm.GateRange(&s.dead, core, s.m.Cores, va, size)
}

// Fork is not carried by this baseline.
func (s *Space) Fork(core int) (mm.MM, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return nil, err
	}
	return nil, mm.ErrNotSupported
}

// eachReplica runs fn on the tree of every replica that materialized mp,
// under that replica's lock. The caller holds mp's shard lock: shard
// before replica, everywhere.
func (s *Space) eachReplica(mp *mapping, fn func(t *pt.Tree)) {
	for c, r := range s.replicas {
		if mp.cores&(1<<c) != 0 {
			r.mu.Lock()
			fn(r.tree)
			r.mu.Unlock()
		}
	}
}

// Touch implements mm.MM: the machine's access path over the calling
// core's replica, faulting through pageFault.
func (s *Space) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return err
	}
	return s.m.Access(core, s.asid, s.replicas[core].tree, va, acc, s.pageFault, nil)
}

// Load implements mm.MM.
func (s *Space) Load(core int, va arch.Vaddr) (b byte, err error) {
	if err = mm.Gate(&s.dead, core, s.m.Cores); err == nil {
		err = s.m.Access(core, s.asid, s.replicas[core].tree, va, pt.AccessRead, s.pageFault, func(page []byte, off uint64) { b = page[off] })
	}
	return b, err
}

// Store implements mm.MM.
func (s *Space) Store(core int, va arch.Vaddr, b byte) error {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return err
	}
	return s.m.Access(core, s.asid, s.replicas[core].tree, va, pt.AccessWrite, s.pageFault, func(page []byte, off uint64) { page[off] = b })
}

// pageFault backs the page (first fault anywhere) and installs it into
// the faulting core's replica only — with the shard lock still held, so
// an unmap of the page either finds this core in mp.cores and clears the
// replica, or has already removed the mapping this fault looked up.
func (s *Space) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.PageFaults.Add(1)
	s.m.OpTick(core)
	page := arch.PageAlignDown(va)
	sh := s.shardOf(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mp, ok := sh.pages[page]
	if !ok || !mp.perm.Contains(acc.Needs()) {
		return mm.ErrSegv
	}
	if mp.frame == arch.NoPFN {
		frame, err := s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
		mp.frame = frame
	}
	r := s.replicas[core]
	r.mu.Lock()
	err := s.setLeaf(core, r.tree, page, mp.frame, mp.perm)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	mp.cores |= 1 << core
	s.m.TLB.FlushLocal(core, s.asid, page)
	return nil
}

// setLeaf maps va to frame in replica tree t (its lock held); a PTE that
// was not present before takes a reference and a map count on the frame.
// A replica only ever maps a page that has its frame (mp.cores != 0
// implies mp.frame is set).
func (s *Space) setLeaf(core int, t *pt.Tree, va arch.Vaddr, frame arch.PFN, perm arch.Perm) error {
	leaf, idx, err := t.EnsureSlot(core, va)
	if err != nil {
		return err
	}
	if old := t.SetPTE(leaf, idx, s.isa.EncodeLeaf(frame, perm, 1)); !s.isa.IsPresent(old) {
		s.m.Phys.Desc(frame).Map()
		s.m.Phys.Get(frame)
	}
	return nil
}

// clearLeaf unmaps va from replica tree t (its lock held), dropping the
// PTE's reference; the mapping's own reference keeps the frame alive.
func (s *Space) clearLeaf(t *pt.Tree, va arch.Vaddr) {
	leaf, idx, ok := t.Slot(va, 1)
	if !ok {
		return
	}
	if old := t.SetPTE(leaf, idx, 0); s.isa.IsPresent(old) {
		s.m.Phys.Desc(s.isa.PFNOf(old)).Unmap()
		s.m.Phys.Put(0, s.isa.PFNOf(old))
	}
}

// Destroy implements mm.MM. Idempotent; issues no TLB flush (the
// allocator's rollover flush covers the dead translations before the
// slot is reissued) and returns the ASID. An access that passed the gate
// may still be walking a replica, so the RCU monitor tears them down.
func (s *Space) Destroy(core int) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	// Free mapped frames via the shards (each mapping holds the base
	// reference; replica PTEs hold one more each).
	var frames []arch.PFN
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, mp := range sh.pages {
			if mp.frame != arch.NoPFN {
				frames = append(frames, mp.frame)
			}
		}
		sh.pages = make(map[arch.Vaddr]*mapping)
		sh.mu.Unlock()
	}
	s.m.Defer(core, func() {
		for _, r := range s.replicas {
			r.tree.Destroy(core, func(pte uint64, level int) {
				s.m.Phys.Desc(s.isa.PFNOf(pte)).Unmap()
				frames = append(frames, s.isa.PFNOf(pte))
			})
		}
		s.m.Phys.PutList(core, frames)
	})
	s.m.FreeASID(s.asid)
}

// PTBytes reports the total page-table bytes across all replicas — the
// replication overhead Figure 22 charges RadixVM with.
func (s *Space) PTBytes() uint64 {
	var pages int64
	for _, r := range s.replicas {
		pages += r.tree.PTPageCount.Load()
	}
	return uint64(pages) * arch.PageSize
}

// MetaBytes approximates the radix-structure metadata footprint.
func (s *Space) MetaBytes() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += uint64(len(sh.pages)) * 48
		sh.mu.Unlock()
	}
	return n
}
