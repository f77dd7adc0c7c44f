// adapter.go is the ONLY file of the benchmark that imports the program
// under test. Every other file talks to the types and functions declared
// here, so a refactor of the repo's internals needs a follow-up in this
// file alone.
//
// Pinned surface (what a later change must keep, or change here):
//
//	cortenmm (public)  NewMachine(MachineConfig{Cores,NUMANodes,Frames,TLB}),
//	                   New(Options{Machine,Protocol,PerCoreVA}), NewLinuxBaseline,
//	                   MM.{Mmap,MmapFixed,Munmap,Mprotect,Touch,Load,Store,
//	                   Destroy,ASID,Stats}, AddrSpace.{Lock,Tree,CheckInvariants},
//	                   Tx.{Query,AnyAllocated,Mark,Map,Unmap,Protect,PopulateAnon,Close},
//	                   Machine.{Phys,TLB,RCU,OpTick,Quiesce}
//	internal/cpusim    NewPerCoreVA, PerCoreVA.{Alloc,Free}, UserLo, UserHi
//	internal/mem       PhysMem.{AllocFrame,AllocFrameBatch,AllocFrames,Put,DataPage,
//	                   FreeFrames,KindFrames,Stats,NodeStats,Audit}, KindAnon, KindPT
//	internal/pt        NewTree, Tree.{Root,Walk,WalkAccess,SetPTE,SetMeta,GetMeta,
//	                   Destroy,CheckWellFormed}, Status, StatusPrivateAnon, StatusMapped
//	internal/tlb       Machine.{Lookup,Insert,ShootdownRange,Tick,Stats}
//	internal/rcu       Domain.{ReadLock,ReadUnlock,Defer,Poll,Barrier,Stats}
//	internal/locks     MCS, PhaseFair, NewBRAVO
//	internal/mm        Stats.{KernelNanos,PageFaults,SoftFaults}
//
// The benchmark does not import internal/bench or internal/workload.
package main

import (
	"errors"
	"fmt"
	"sync"

	"cortenmm"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/locks"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

// Value types and constants the workloads use.
type (
	Vaddr  = cortenmm.Vaddr
	Perm   = cortenmm.Perm
	Flags  = cortenmm.Flags
	Access = cortenmm.Access
)

const (
	PageSize     = cortenmm.PageSize
	PermRead     = cortenmm.PermRead
	PermRW       = cortenmm.PermRW
	FlagPopulate = cortenmm.FlagPopulate
	AccessWrite  = cortenmm.AccessWrite
	UserLo       = cortenmm.UserLo
)

var ErrSegv = cortenmm.ErrSegv

// Space is the syscall and access surface the workloads drive. Every
// system under test (cortenmm.MM) satisfies it, and so does the
// decomposed replay below.
type Space interface {
	Mmap(core int, size uint64, perm Perm, fl Flags) (Vaddr, error)
	MmapFixed(core int, va Vaddr, size uint64, perm Perm, fl Flags) error
	Munmap(core int, va Vaddr, size uint64) error
	Mprotect(core int, va Vaddr, size uint64, perm Perm) error
	Touch(core int, va Vaddr, acc Access) error
	Load(core int, va Vaddr) (byte, error)
	Store(core int, va Vaddr, b byte) error
}

// The systems NewEnv builds. sysAdv is the flagship every gated number
// comes from; the other two only feed the reference pass.
const (
	sysAdv = "corten-adv"
	sysRW  = "corten-rw"
	sysVMA = "vma"
)

// Machine shape of every run: what internal/bench.NewEnv builds.
const (
	simCores  = 2
	simNodes  = 2
	simFrames = 1 << 16
)

// Env is one fresh simulated machine with one address space on it.
type Env struct {
	M   *cortenmm.Machine
	Sys cortenmm.MM
	AS  *cortenmm.AddrSpace // nil for the vma baseline
	// free0 is the machine's free-frame count before the space existed;
	// Close checks that teardown returns to it.
	free0 uint64
}

// NewEnv builds the machine and the address space of the given system.
func NewEnv(system string) (*Env, error) {
	mode := cortenmm.TLBLATR
	if system == sysVMA {
		mode = cortenmm.TLBSync
	}
	m := cortenmm.NewMachine(cortenmm.MachineConfig{
		Cores: simCores, NUMANodes: simNodes, Frames: simFrames, TLB: mode,
	})
	e := &Env{M: m, free0: m.Phys.FreeFrames()}
	switch system {
	case sysAdv, sysRW:
		proto := cortenmm.ProtocolAdv
		if system == sysRW {
			proto = cortenmm.ProtocolRW
		}
		as, err := cortenmm.New(cortenmm.Options{Machine: m, Protocol: proto, PerCoreVA: true})
		if err != nil {
			return nil, fmt.Errorf("new %s space: %w", system, err)
		}
		e.AS, e.Sys = as, as
	case sysVMA:
		s, err := cortenmm.NewLinuxBaseline(m, nil)
		if err != nil {
			return nil, fmt.Errorf("new vma space: %w", err)
		}
		e.Sys = s
	default:
		return nil, fmt.Errorf("unknown system %q", system)
	}
	return e, nil
}

// Verify quiesces the machine and runs every whole-machine check that is
// valid while the space is alive. It returns one error per failed check.
func (e *Env) Verify() []error {
	e.M.Quiesce()
	var errs []error
	if rep := e.M.Phys.Audit(); !rep.Ok() {
		errs = append(errs, fmt.Errorf("Phys.Audit: %s", rep.String()))
	}
	if e.AS != nil {
		if err := e.AS.Tree().CheckWellFormed(); err != nil {
			errs = append(errs, fmt.Errorf("Tree.CheckWellFormed: %w", err))
		}
		if err := e.AS.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("CheckInvariants: %w", err))
		}
	}
	return errs
}

// checks is how many checks Verify and Close make together.
func (e *Env) checks() int {
	if e.AS == nil {
		return 2
	}
	return 4
}

// Close destroys the space and checks that every frame came back.
func (e *Env) Close() error {
	e.Sys.Destroy(0)
	e.M.Quiesce()
	if got := e.M.Phys.FreeFrames(); got != e.free0 {
		return fmt.Errorf("free frames after Destroy: %d, want %d", got, e.free0)
	}
	return nil
}

// PTBytes is the simulated memory held by page-table pages.
func (e *Env) PTBytes() uint64 { return e.M.Phys.Stats().PageTableBytes }

// PTPages is the number of live page-table pages.
func (e *Env) PTPages() int64 { return e.M.Phys.KindFrames(mem.KindPT) }

// Counters is one reading of every cumulative counter the per-layer
// deltas are made of.
type Counters struct {
	KernelNanos, Faults, SoftFaults                                  uint64
	Lookups, Hits, Shootdowns, IPIs, Filtered                        uint64
	TLBDeferred, Applied, GenBumps, Evictions, StaleDrops            uint64
	RCUDeferred, RCUPending, FramesLocal, FramesRemote, PTPagesAlive uint64
}

// Counters reads the space's, the TLB's, the RCU domain's and the frame
// allocator's counters.
func (e *Env) Counters() Counters {
	st := e.Sys.Stats()
	t := e.M.TLB.Stats()
	r := e.M.RCU.Stats()
	c := Counters{
		KernelNanos: st.KernelNanos.Load(), Faults: st.PageFaults.Load(), SoftFaults: st.SoftFaults.Load(),
		Lookups: t.Lookups, Hits: t.Hits, Shootdowns: t.Shootdowns, IPIs: t.IPIs, Filtered: t.Filtered,
		TLBDeferred: t.Deferred, Applied: t.Applied, GenBumps: t.GenBumps, Evictions: t.Evictions, StaleDrops: t.StaleDrops,
		RCUDeferred: r.Deferred, RCUPending: uint64(r.Pending),
		PTPagesAlive: uint64(e.PTPages()),
	}
	for _, n := range e.M.Phys.NodeStats() {
		c.FramesLocal += n.Local
		c.FramesRemote += n.Remote
	}
	return c
}

// present reports whether a hardware walk finds a leaf for va, which is
// how the traced run tells a faulting access from a resident one.
func (e *Env) present(va Vaddr) bool {
	_, _, ok := e.AS.Tree().Walk(va)
	return ok
}

// decomposed is corten-adv's syscalls rebuilt from the public
// transactional interface they are made of. It owns its own per-core VA
// allocator. When fine, the end of every step is a lap, so the traced run
// gets one span per call into each layer; otherwise the whole replay of a
// syscall is one span.
type decomposed struct {
	e    *Env
	va   *cpusim.PerCoreVA
	tr   *tracer
	fine bool
}

func (d *decomposed) lap(s step, n int) {
	if d.fine {
		d.tr.lap(s, n)
	}
}

// sysDone ends a replayed syscall.
func (d *decomposed) sysDone() {
	if !d.fine {
		d.tr.lap(stepReplay, 1)
	}
	d.tr.of = 0
}

// The harness allocator has four arenas per simulated core and hands out
// from arena 4·core+1: that VA lies inside the range the space's own
// allocator gives to the same core, far beyond anything it will reach, so
// the two allocators never collide and owns() can tell them apart.
const arenasPerCore = 4

func newDecomposed(e *Env, tr *tracer) *decomposed {
	return &decomposed{e: e, va: cpusim.NewPerCoreVA(simCores * arenasPerCore), tr: tr}
}

func arenaOf(core int) int { return core*arenasPerCore + 1 }

// owns reports whether va came from the harness allocator.
func (d *decomposed) owns(va Vaddr) bool {
	if va < cpusim.UserLo {
		return false
	}
	span := uint64(cpusim.UserHi-cpusim.UserLo) / (simCores * arenasPerCore)
	return uint64(va-cpusim.UserLo)/span%arenasPerCore == 1
}

func (d *decomposed) Mmap(core int, size uint64, perm Perm, fl Flags) (Vaddr, error) {
	d.tr.of = stepSysMmap
	defer d.sysDone()
	va, err := d.va.Alloc(arenaOf(core), size)
	d.lap(stepVAAlloc, 1)
	if err != nil {
		return 0, err
	}
	if err := d.mapAt(core, va, size, perm, fl, false); err != nil {
		d.va.Free(arenaOf(core), va, size)
		return 0, err
	}
	return va, nil
}

func (d *decomposed) MmapFixed(core int, va Vaddr, size uint64, perm Perm, fl Flags) error {
	d.tr.of = stepSysMmap
	defer d.sysDone()
	return d.mapAt(core, va, size, perm, fl, true)
}

func (d *decomposed) mapAt(core int, va Vaddr, size uint64, perm Perm, fl Flags, checkExists bool) error {
	hi := va + Vaddr(size)
	tx, err := d.begin(core, va, hi)
	if err != nil {
		return err
	}
	if checkExists {
		used, err := tx.AnyAllocated(va, hi)
		d.lap(stepQuery, 1)
		if err == nil && used {
			err = cortenmm.ErrExists
		}
		if err != nil {
			d.end(tx)
			return err
		}
	}
	err = tx.Mark(va, hi, pt.Status{Kind: pt.StatusPrivateAnon, Perm: perm})
	d.lap(stepMark, 1)
	if err == nil && fl&FlagPopulate != 0 {
		err = tx.PopulateAnon(va, hi)
		d.lap(stepPopulate, int(size/PageSize))
	}
	if err != nil {
		_ = tx.Unmap(va, hi) // best-effort unwind, as the syscall does
	}
	d.end(tx)
	return err
}

// begin is the entry every decomposed syscall shares with the real one:
// the core's timer tick, then the locking protocol.
func (d *decomposed) begin(core int, lo, hi Vaddr) (*cortenmm.Tx, error) {
	d.e.M.OpTick(core)
	d.lap(stepOpTick, 1)
	tx, err := d.e.AS.Lock(core, lo, hi)
	d.lap(stepAcquire, 1)
	return tx, err
}

func (d *decomposed) end(tx *cortenmm.Tx) {
	tx.Close()
	d.lap(stepClose, 1)
}

func (d *decomposed) Munmap(core int, va Vaddr, size uint64) error {
	d.tr.of = stepSysMunmap
	defer d.sysDone()
	hi := va + Vaddr(size)
	tx, err := d.begin(core, va, hi)
	if err != nil {
		return err
	}
	err = tx.Unmap(va, hi)
	d.lap(stepUnmap, int(size/PageSize))
	d.end(tx)
	if err == nil && d.owns(va) {
		d.va.Free(arenaOf(core), va, size)
		d.lap(stepVAFree, 1)
	}
	return err
}

func (d *decomposed) Mprotect(core int, va Vaddr, size uint64, perm Perm) error {
	d.tr.of = stepSysMprotect
	defer d.sysDone()
	hi := va + Vaddr(size)
	tx, err := d.begin(core, va, hi)
	if err != nil {
		return err
	}
	err = tx.Protect(va, hi, perm)
	d.lap(stepProtect, 1)
	d.end(tx)
	return err
}

// fault is the anonymous page-fault handler: one transaction that looks
// the page up, takes a frame and maps it. The access that follows still
// belongs to the fault, so the caller ends the stamping.
func (d *decomposed) fault(core int, va Vaddr) error {
	d.tr.of = stepSysFault
	page := va &^ (PageSize - 1)
	tx, err := d.begin(core, page, page+PageSize)
	if err != nil {
		return err
	}
	st, err := tx.Query(page)
	d.lap(stepQuery, 1)
	switch {
	case err != nil:
	case st.Kind == pt.StatusPrivateAnon:
		var frame cortenmm.PFN
		frame, err = d.e.M.Phys.AllocFrame(core, mem.KindAnon)
		d.lap(stepAllocFrame, 1)
		if err == nil {
			if err = tx.Map(page, frame, 1, st.Perm); err != nil {
				d.e.M.Phys.Put(core, frame)
			}
			d.lap(stepMap, 1)
		}
	case st.Kind == pt.StatusMapped:
	default:
		err = ErrSegv
	}
	d.end(tx)
	return err
}

// probe is one substrate function timed on its own. run makes probeBlock
// calls and is what the caller times; prep and done bracket it untimed.
type probe struct {
	name string
	// per is how many layer operations one call makes.
	per  int
	prep func() error
	run  func() error
	done func()
}

// probeBlock is how many calls one timed block makes.
const probeBlock = 64

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink uint64

// probes returns the substrate probes for e's machine. They run right
// after a round on the warmed machine and leave it as they found it;
// cleanup undoes the scratch state they share.
func probes(e *Env) (list []probe, cleanup func() error, err error) {
	m, phys := e.M, e.M.Phys
	const scratchPages = 64
	const scratchBytes = scratchPages * PageSize
	scratch, err := e.Sys.Mmap(0, scratchBytes, PermRW, FlagPopulate)
	if err != nil {
		return nil, nil, fmt.Errorf("probe scratch mmap: %w", err)
	}
	isa := cortenmm.X8664(false)
	tree, err := pt.NewTree(phys, isa, simCores, false)
	if err != nil {
		return nil, nil, fmt.Errorf("probe scratch tree: %w", err)
	}
	cleanup = func() error {
		tree.Destroy(0, func(uint64, int) {})
		return e.Sys.Munmap(0, scratch, scratchBytes)
	}
	live := e.AS.Tree()
	asid := e.Sys.ASID()
	page := func(i int) Vaddr { return scratch + Vaddr(i%scratchPages)*PageSize }
	tr, ok := live.WalkAccess(scratch, cortenmm.AccessRead)
	if !ok {
		return nil, nil, errors.New("probe scratch page not mapped")
	}
	// A VA of the same space that nothing ever maps or inserts.
	const unmapped = UserLo - 1<<30
	frames := make([]cortenmm.PFN, probeBlock)
	leaf := isa.EncodeLeaf(1, PermRW, 1)
	status := pt.Status{Kind: pt.StatusPrivateAnon, Perm: PermRW}
	var mcs locks.MCS
	var pfq locks.PhaseFair
	bravo := locks.NewBRAVO(new(locks.PhaseFair), simCores)
	setMeta := func() error {
		for i := 0; i < probeBlock; i++ {
			tree.SetMeta(tree.Root, i, status)
		}
		return nil
	}
	clearMeta := func() {
		for i := 0; i < probeBlock; i++ {
			tree.SetMeta(tree.Root, i, pt.Status{})
		}
	}

	list = []probe{
		{name: "pt.walk_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				pte, _, _ := live.Walk(page(i))
				probeSink += pte
			}
			return nil
		}},
		{name: "pt.walk_access_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				x, _ := live.WalkAccess(page(i), cortenmm.AccessRead)
				probeSink += uint64(x.PFN)
			}
			return nil
		}},
		{name: "pt.set_pte_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				probeSink += tree.SetPTE(tree.Root, i, leaf)
			}
			return nil
		}, done: func() {
			for i := 0; i < probeBlock; i++ {
				tree.SetPTE(tree.Root, i, 0)
			}
		}},
		{name: "pt.meta_set_ns", run: setMeta, done: clearMeta},
		{name: "pt.meta_get_ns", prep: setMeta, run: func() error {
			for i := 0; i < probeBlock; i++ {
				probeSink += uint64(tree.GetMeta(tree.Root, i).Perm)
			}
			return nil
		}, done: clearMeta},
		{name: "mem.alloc_put_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				pfn, err := phys.AllocFrame(0, mem.KindAnon)
				if err != nil {
					return err
				}
				phys.Put(0, pfn)
			}
			return nil
		}},
		{name: "mem.alloc_batch_ns_per_frame", per: probeBlock, run: func() error {
			for i := 0; i < probeBlock; i++ {
				got := phys.AllocFrameBatch(0, mem.KindAnon, frames)
				for _, pfn := range frames[:got] {
					phys.Put(0, pfn)
				}
				if got != len(frames) {
					return fmt.Errorf("AllocFrameBatch gave %d of %d frames", got, len(frames))
				}
			}
			return nil
		}},
		{name: "mem.alloc_order9_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				pfn, err := phys.AllocFrames(0, 9, mem.KindAnon)
				if err != nil {
					return err
				}
				phys.Put(0, pfn)
			}
			return nil
		}},
		{name: "mem.data_page_first_ns", prep: func() error {
			if got := phys.AllocFrameBatch(0, mem.KindAnon, frames); got != len(frames) {
				for _, pfn := range frames[:got] {
					phys.Put(0, pfn)
				}
				return fmt.Errorf("AllocFrameBatch gave %d of %d frames", got, len(frames))
			}
			return nil
		}, run: func() error {
			for i := 0; i < probeBlock; i++ {
				probeSink += uint64(len(phys.DataPage(frames[i])))
			}
			return nil
		}, done: func() {
			for _, pfn := range frames {
				phys.Put(0, pfn)
			}
		}},
		{name: "tlb.lookup_hit_ns", prep: func() error {
			m.TLB.Insert(0, asid, scratch, tr)
			return nil
		}, run: func() error {
			for i := 0; i < probeBlock; i++ {
				x, _ := m.TLB.Lookup(0, asid, scratch)
				probeSink += uint64(x.PFN)
			}
			return nil
		}},
		{name: "tlb.lookup_miss_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				x, _ := m.TLB.Lookup(0, asid, unmapped)
				probeSink += uint64(x.PFN)
			}
			return nil
		}},
		{name: "tlb.insert_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.TLB.Insert(0, asid, page(i), tr)
			}
			return nil
		}},
		{name: "tlb.shootdown_range_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.TLB.ShootdownRange(0, asid, scratch, scratch+4*PageSize)
			}
			return nil
		}, done: func() { m.TLB.Tick(0) }},
		{name: "tlb.tick_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.TLB.Tick(0)
			}
			return nil
		}},
		{name: "rcu.read_section_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.RCU.ReadLock(0)
				m.RCU.ReadUnlock(0)
			}
			return nil
		}},
		{name: "rcu.defer_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.RCU.Defer(func() {})
			}
			return nil
		}, done: func() { m.RCU.Barrier() }},
		{name: "rcu.poll_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				m.RCU.Poll()
			}
			return nil
		}},
		{name: "locks.mcs_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				mcs.Lock()
				mcs.Unlock()
			}
			return nil
		}},
		{name: "locks.pfq_read_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				pfq.RLock(0)
				pfq.RUnlock(0)
			}
			return nil
		}},
		{name: "locks.bravo_read_ns", run: func() error {
			for i := 0; i < probeBlock; i++ {
				bravo.RLock(0)
				bravo.RUnlock(0)
			}
			return nil
		}},
	}
	for i := range list {
		if list[i].per == 0 {
			list[i].per = 1
		}
	}
	return list, cleanup, nil
}

// mcsHandoff has two goroutines take one MCS lock n times each, so that
// most of the 2n acquisitions are handed over from the other side.
func mcsHandoff(n int) {
	var l locks.MCS
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeBlock; i++ {
				l.Lock()
				probeSink++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}
