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
	pending atomic.Int32 // replicas yet to apply an unmap; the last one frees
}

// log is the shared operation log. tailN mirrors len(ops) so readers
// can detect replica lag with one atomic load.
type opLog struct {
	mu    sync.Mutex
	ops   []*op
	tailN atomic.Int64
}

func (l *opLog) append(o *op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, o)
	l.tailN.Store(int64(len(l.ops)))
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
		isa = arch.X8664(false)
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

// ASID implements mm.MM.
func (s *Space) ASID() tlb.ASID { return s.asid }

// Stats implements mm.MM.
func (s *Space) Stats() *mm.Stats { return &s.stats }

// Features implements mm.MM: no on-demand paging (§6.2: "NrOS does not
// support on-demand paging"). There is no Fork, MmapFile or Msync.
func (s *Space) Features() mm.Features {
	return mm.Features{NUMAPolicy: true}
}

// mutate appends the op and replays the local replica up to it.
func (s *Space) mutate(core int, o *op) error {
	o.pending.Store(int32(len(s.replicas)))
	s.log.append(o)
	return s.syncReplica(core, s.replicas[s.m.NodeOf(core)])
}

// syncReplica replays the log on r up to its tail.
func (s *Space) syncReplica(core int, r *replica) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range s.log.slice(int(r.applied.Load()), s.log.tail()) {
		if err := s.apply(core, r, o); err != nil {
			return err
		}
		r.applied.Add(1)
	}
	return nil
}

// apply replays one op on r (its lock held). Whoever takes translations
// away from a replica also shoots them down: cores of this node may have
// cached them from r after the initiator's own shootdown, while r still
// lagged. An unmapped frame goes to the RCU monitor once the last
// replica has let go of it — no replica maps it any more, the shootdown
// just issued covers every fill made from one that did, and an access
// that translated before it is inside a read section.
func (s *Space) apply(core int, r *replica, o *op) error {
	switch o.kind {
	case opMap:
		for i, page := 0, o.lo; page < o.hi; i, page = i+1, page+arch.PageSize {
			leaf, idx, err := r.tree.EnsureSlot(core, page)
			if err != nil {
				return err
			}
			r.tree.SetPTE(leaf, idx, s.isa.EncodeLeaf(o.frames[i], o.perm, 1))
		}
	case opUnmap:
		var freed []arch.PFN
		for page := o.lo; page < o.hi; page += arch.PageSize {
			if leaf, idx, ok := r.tree.Slot(page, 1); ok {
				if old := r.tree.SetPTE(leaf, idx, 0); s.isa.IsPresent(old) {
					freed = append(freed, s.isa.PFNOf(old))
				}
			}
		}
		s.m.TLB.ShootdownRange(core, s.asid, o.lo, o.hi)
		// Every replica computes an identical freed list (they all see
		// the same mappings); the last applier releases its copy.
		if o.pending.Add(-1) == 0 && len(freed) > 0 {
			s.m.Defer(core, func() { s.m.Phys.PutList(core, freed) })
		}
	case opProtect:
		for page := o.lo; page < o.hi; page += arch.PageSize {
			if leaf, idx, ok := r.tree.Slot(page, 1); ok {
				if old := r.tree.LoadPTE(leaf, idx); s.isa.IsPresent(old) {
					r.tree.StorePTE(leaf, idx, s.isa.WithPerm(old, o.perm, 1))
				}
			}
		}
		s.m.TLB.ShootdownAll(core, s.asid, true)
	}
	return nil
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
	if err := s.mapRange(core, va, size, perm); err != nil {
		return 0, err
	}
	return va, nil
}

// MmapFixed implements mm.MM. The local replica, caught up, is the log
// so far: a page it maps is a mapping that exists.
func (s *Space) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	r := s.replicas[s.m.NodeOf(core)]
	if err := s.syncReplica(core, r); err != nil {
		return err
	}
	for page := va; page < va+arch.Vaddr(size); page += arch.PageSize {
		if _, _, ok := r.tree.Walk(page); ok {
			return mm.ErrExists
		}
	}
	return s.mapRange(core, va, size, perm)
}

// mapRange backs [va, va+size) with fresh frames and logs the map op.
func (s *Space) mapRange(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
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

// Munmap implements mm.MM.
func (s *Space) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Munmaps.Add(1)
	s.m.OpTick(core)
	return s.mutate(core, &op{kind: opUnmap, lo: va, hi: va + arch.Vaddr(size)})
}

// Mprotect implements mm.MM.
func (s *Space) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mprotects.Add(1)
	s.m.OpTick(core)
	return s.mutate(core, &op{kind: opProtect, lo: va, hi: va + arch.Vaddr(size), perm: perm})
}

// local gates an access by core and returns the replica it reads
// through, caught up first: node-replication read semantics — a reader
// behind the log replays it before serving the read.
func (s *Space) local(core int) (*replica, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return nil, err
	}
	r := s.replicas[s.m.NodeOf(core)]
	if int(r.applied.Load()) < s.log.tail() {
		if err := s.syncReplica(core, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Touch implements mm.MM: the machine's access path over the local
// node's replica, "faulting" through pageFault.
func (s *Space) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	r, err := s.local(core)
	if err != nil {
		return err
	}
	return s.m.Access(core, s.asid, r.tree, va, acc, s.pageFault, nil)
}

// Load implements mm.MM.
func (s *Space) Load(core int, va arch.Vaddr) (b byte, err error) {
	r, err := s.local(core)
	if err == nil {
		err = s.m.Access(core, s.asid, r.tree, va, pt.AccessRead, s.pageFault, func(page []byte, off uint64) { b = page[off] })
	}
	return b, err
}

// Store implements mm.MM.
func (s *Space) Store(core int, va arch.Vaddr, b byte) error {
	r, err := s.local(core)
	if err != nil {
		return err
	}
	return s.m.Access(core, s.asid, r.tree, va, pt.AccessWrite, s.pageFault, func(page []byte, off uint64) { page[off] = b })
}

// pageFault is what a failed walk means without on-demand paging: the
// replica lagged the log behind the walker's back, or the access is
// illegal. Catch the replica up (waiting out whoever is replaying it);
// the access is retried iff the replica now serves it.
func (s *Space) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	r := s.replicas[s.m.NodeOf(core)]
	if err := s.syncReplica(core, r); err != nil {
		return err
	}
	if pte, _, ok := r.tree.Walk(va); ok && s.isa.PermOf(pte).Contains(acc.Needs()) {
		return nil
	}
	s.stats.PageFaults.Add(1)
	return mm.ErrSegv
}

// Destroy implements mm.MM. Idempotent; issues no TLB flush (the
// allocator's rollover flush covers the dead translations before the
// slot is reissued) and returns the ASID. An access that passed the gate
// may still be walking a replica, so the RCU monitor tears them down.
func (s *Space) Destroy(core int) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	// Bring every replica to the log tail so pending unmap frees run,
	// then free each replica; the first replica releases the shared
	// data frames, the rest only their PT pages.
	for _, r := range s.replicas {
		_ = s.syncReplica(core, r) // a replica that cannot catch up is torn down as it stands
	}
	s.m.Defer(core, func() {
		var frames []arch.PFN
		for i, r := range s.replicas {
			first := i == 0
			r.tree.Destroy(core, func(pte uint64, level int) {
				if first {
					frames = append(frames, s.isa.PFNOf(pte))
				}
			})
		}
		s.m.Phys.PutList(core, frames)
	})
	s.m.FreeASID(s.asid)
}
