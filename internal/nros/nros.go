// Package nros is a baseline modelled on NrOS (Bhardwaj et al.,
// OSDI'21): the address space is replicated per NUMA node through node
// replication — every mutation is appended to a shared operation log and
// replayed against each node's replica under that replica's coarse lock.
// Within a node the coarse lock serializes everything, which is why the
// paper finds NrOS's memory management performance comparable to Linux
// (§6.3). NrOS has no on-demand paging: mmap eagerly backs and maps the
// whole range, so the harness treats its mmap as mmap-PF.
package nros

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

type opKind uint8

const (
	opMap opKind = iota
	opUnmap
	opProtect
)

// op is one logged mutation. Map ops carry the frames allocated by the
// initiator so every replica maps the same physical pages.
type op struct {
	kind    opKind
	lo, hi  arch.Vaddr
	perm    arch.Perm
	frames  []arch.PFN
	pending atomic.Int32 // replicas yet to apply; last one frees frames
}

// log is the shared operation log. tailN mirrors len(ops) so readers
// can detect replica lag with one atomic load.
type opLog struct {
	mu    sync.Mutex
	ops   []*op
	tailN atomic.Int64
}

func (l *opLog) append(o *op) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, o)
	l.tailN.Store(int64(len(l.ops)))
	return len(l.ops)
}

func (l *opLog) tail() int { return int(l.tailN.Load()) }

func (l *opLog) slice(from, to int) []*op {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops[from:to]
}

// replica is one NUMA node's copy of the address space. applied is
// written under mu but read locklessly by the reader fast path.
type replica struct {
	mu      sync.Mutex
	tree    *pt.Tree
	applied atomic.Int64
}

// Space is an NrOS-style address space.
type Space struct {
	m    *cpusim.Machine
	isa  arch.ISA
	asid tlb.ASID
	dead atomic.Bool // Destroy ran: the ASID has been freed

	log      opLog
	replicas []*replica
	brk      atomic.Uint64
	stats    mm.Stats
}

// New creates an empty NrOS-style space with one replica per NUMA node.
func New(m *cpusim.Machine, isa arch.ISA) (*Space, error) {
	if isa == nil {
		isa = arch.X8664{}
	}
	s := &Space{m: m, isa: isa, asid: m.AllocASID(), replicas: make([]*replica, m.NUMANodes)}
	for i := range s.replicas {
		t, err := pt.NewTree(m.Phys, isa, m.Cores, false)
		if err != nil {
			return nil, err
		}
		s.replicas[i] = &replica{tree: t}
	}
	s.brk.Store(uint64(cpusim.UserLo))
	return s, nil
}

// Name implements mm.MM.
func (s *Space) Name() string { return "nros" }

// ASID implements mm.MM.
func (s *Space) ASID() tlb.ASID { return s.asid }

// Stats implements mm.MM.
func (s *Space) Stats() *mm.Stats { return &s.stats }

// Features implements mm.MM: no on-demand paging, no COW (§6.2: "NrOS
// does not support on-demand paging").
func (s *Space) Features() mm.Features {
	return mm.Features{HugePage: false, NUMAPolicy: true}
}

// mutate appends the op and replays the local replica up to it.
func (s *Space) mutate(core int, o *op) error {
	o.pending.Store(int32(len(s.replicas)))
	idx := s.log.append(o)
	return s.syncReplica(core, s.replicas[s.m.NodeOf(core)], idx)
}

// syncReplica replays the log up to at least target on r.
func (s *Space) syncReplica(core int, r *replica, target int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if target < 0 {
		target = s.log.tail()
	}
	applied := int(r.applied.Load())
	if applied >= target {
		return nil
	}
	for _, o := range s.log.slice(applied, target) {
		freed, err := s.apply(core, r, o)
		if err != nil {
			return err
		}
		r.applied.Add(1)
		// Every replica computes an identical freed list (they all see
		// the same mappings); the last applier releases its copy.
		if o.pending.Add(-1) == 0 && o.kind == opUnmap {
			s.m.Phys.PutList(core, freed)
		}
	}
	return nil
}

func (s *Space) apply(core int, r *replica, o *op) ([]arch.PFN, error) {
	switch o.kind {
	case opMap:
		i := 0
		for page := o.lo; page < o.hi; page += arch.PageSize {
			if err := s.setLeaf(core, r.tree, page, o.frames[i], o.perm); err != nil {
				return nil, err
			}
			i++
		}
	case opUnmap:
		var freed []arch.PFN
		for page := o.lo; page < o.hi; page += arch.PageSize {
			if pfn, ok := s.clearLeaf(r.tree, page); ok {
				freed = append(freed, pfn)
			}
		}
		return freed, nil
	case opProtect:
		for page := o.lo; page < o.hi; page += arch.PageSize {
			s.protectLeaf(r.tree, page, o.perm)
		}
	}
	return nil, nil
}

// Mmap implements mm.MM: eager backing — allocate frames, log the map
// op, replay locally (NrOS's MapRange).
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
	frames := make([]arch.PFN, 0, size/arch.PageSize)
	for off := uint64(0); off < size; off += arch.PageSize {
		pfn, err := s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			s.m.Phys.PutList(core, frames)
			return 0, err
		}
		frames = append(frames, pfn)
	}
	if err := s.mutate(core, &op{kind: opMap, lo: va, hi: va + arch.Vaddr(size), perm: perm, frames: frames}); err != nil {
		return 0, err
	}
	return va, nil
}

// MmapFixed implements mm.MM.
func (s *Space) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	frames := make([]arch.PFN, 0, size/arch.PageSize)
	for off := uint64(0); off < size; off += arch.PageSize {
		pfn, err := s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			s.m.Phys.PutList(core, frames)
			return err
		}
		frames = append(frames, pfn)
	}
	return s.mutate(core, &op{kind: opMap, lo: va, hi: va + arch.Vaddr(size), perm: perm, frames: frames})
}

// MmapFile is not carried by this baseline.
func (s *Space) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return 0, err
	}
	return 0, mm.ErrNotSupported
}

// Munmap implements mm.MM.
func (s *Space) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Munmaps.Add(1)
	s.m.OpTick(core)
	if err := s.mutate(core, &op{kind: opUnmap, lo: va, hi: va + arch.Vaddr(size)}); err != nil {
		return err
	}
	s.m.TLB.ShootdownRange(core, s.asid, va, va+arch.Vaddr(size))
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
	if err := s.mutate(core, &op{kind: opProtect, lo: va, hi: va + arch.Vaddr(size), perm: perm}); err != nil {
		return err
	}
	s.m.TLB.ShootdownAll(core, s.asid, true)
	return nil
}

// Msync implements mm.MM (no file mappings).
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

// Touch implements mm.MM against the local node's replica, syncing it
// when the walk misses (replica lag).
func (s *Space) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	_, err := s.translate(core, va, acc)
	return err
}

// Load implements mm.MM.
func (s *Space) Load(core int, va arch.Vaddr) (byte, error) {
	tr, err := s.translate(core, va, pt.AccessRead)
	if err != nil {
		return 0, err
	}
	return s.m.Phys.DataPage(tr.PFN)[va&(arch.PageSize-1)], nil
}

// Store implements mm.MM.
func (s *Space) Store(core int, va arch.Vaddr, b byte) error {
	tr, err := s.translate(core, va, pt.AccessWrite)
	if err != nil {
		return err
	}
	s.m.Phys.DataPage(tr.PFN)[va&(arch.PageSize-1)] = b
	return nil
}

func (s *Space) translate(core int, va arch.Vaddr, acc pt.Access) (pt.Translation, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return pt.Translation{}, err
	}
	if va >= arch.MaxVaddr {
		return pt.Translation{}, mm.ErrSegv
	}
	page := arch.PageAlignDown(va)
	r := s.replicas[s.m.NodeOf(core)]
	synced := false
	for {
		// Node-replication read semantics: a reader behind the log must
		// catch its replica up before serving the read.
		if int(r.applied.Load()) < s.log.tail() {
			if err := s.syncReplica(core, r, -1); err != nil {
				return pt.Translation{}, err
			}
			s.m.TLB.FlushLocal(core, s.asid, page)
		}
		if tr, ok := s.m.TLB.Lookup(core, s.asid, page); ok && tr.Perm.Contains(acc.Needs()) {
			return tr, nil
		}
		fill := s.m.TLB.FillBegin(core, s.asid)
		if tr, ok := r.tree.WalkAccess(va, acc); ok {
			s.m.TLB.InsertAt(core, s.asid, page, tr, fill)
			return tr, nil
		}
		if synced {
			s.m.TLB.FlushLocal(core, s.asid, page)
			s.stats.PageFaults.Add(1)
			return pt.Translation{}, mm.ErrSegv
		}
		// Replica may be behind the log; catch up once and retry.
		if err := s.syncReplica(core, r, -1); err != nil {
			return pt.Translation{}, err
		}
		s.m.TLB.FlushLocal(core, s.asid, page)
		synced = true
	}
}

// Destroy implements mm.MM. Idempotent; issues no TLB flush (the
// allocator's rollover flush covers the dead translations before the
// slot is reissued) and returns the ASID.
func (s *Space) Destroy(core int) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	// Bring every replica to the log tail so pending unmap frees run,
	// then free each replica; the first replica releases the shared
	// data frames, the rest only their PT pages.
	for _, r := range s.replicas {
		_ = s.syncReplica(core, r, -1)
	}
	var frames []arch.PFN
	for i, r := range s.replicas {
		first := i == 0
		r.mu.Lock()
		r.tree.Destroy(core, func(pte uint64, level int) {
			if first {
				frames = append(frames, s.isa.PFNOf(pte))
			}
		})
		r.mu.Unlock()
	}
	s.replicas = nil
	s.m.Phys.PutList(core, frames)
	s.m.FreeASID(s.asid)
}

func (s *Space) setLeaf(core int, t *pt.Tree, va arch.Vaddr, frame arch.PFN, perm arch.Perm) error {
	cur := t.Root
	for level := arch.Levels; level > 1; level-- {
		idx := arch.IndexAt(va, level)
		pte := t.LoadPTE(cur, idx)
		if !s.isa.IsPresent(pte) {
			child, err := t.AllocPTPage(core, level-1)
			if err != nil {
				return err
			}
			t.SetPTE(cur, idx, s.isa.EncodeTable(child))
			pte = t.LoadPTE(cur, idx)
		}
		cur = s.isa.PFNOf(pte)
	}
	t.SetPTE(cur, arch.IndexAt(va, 1), s.isa.EncodeLeaf(frame, perm, 1))
	return nil
}

func (s *Space) clearLeaf(t *pt.Tree, va arch.Vaddr) (arch.PFN, bool) {
	cur := t.Root
	for level := arch.Levels; level > 1; level-- {
		pte := t.LoadPTE(cur, arch.IndexAt(va, level))
		if !s.isa.IsPresent(pte) {
			return 0, false
		}
		cur = s.isa.PFNOf(pte)
	}
	idx := arch.IndexAt(va, 1)
	old := t.LoadPTE(cur, idx)
	if !s.isa.IsPresent(old) {
		return 0, false
	}
	t.SetPTE(cur, idx, 0)
	return s.isa.PFNOf(old), true
}

func (s *Space) protectLeaf(t *pt.Tree, va arch.Vaddr, perm arch.Perm) {
	cur := t.Root
	for level := arch.Levels; level > 1; level-- {
		pte := t.LoadPTE(cur, arch.IndexAt(va, level))
		if !s.isa.IsPresent(pte) {
			return
		}
		cur = s.isa.PFNOf(pte)
	}
	idx := arch.IndexAt(va, 1)
	if old := t.LoadPTE(cur, idx); s.isa.IsPresent(old) {
		t.StorePTE(cur, idx, s.isa.WithPerm(old, perm, 1))
	}
}
