// Package core implements CortenMM: a single-level-abstraction memory
// management system (§3). There is no VMA layer — the page table plus
// per-PTE metadata arrays are the only representation of the address
// space, and the transactional RCursor interface (Figure 4) is the only
// way to program the MMU. Nothing else records which ranges exist: VA
// recycling, reclaim and collapse sweeps and OOM sizing all read the
// page table (DESIGN.md §9.1), and so does which files it maps: every
// status word naming a file and every PTE mapping one of its page-cache
// frames is one registration of the space with the file, so the file's
// object id lives exactly as long as something in a tree names it.
// Beside the page table lives only the VA arena that hands out fresh
// ranges.
//
// Two locking protocols are provided (§4.1): CortenMM_rw, which takes
// reader locks down the tree and a writer lock on the covering PT page
// (Figure 5), and CortenMM_adv, which traverses locklessly under RCU and
// then locks the covering PT page and its descendants, handling
// concurrent PT-page removal with stale marking and deferred free
// (Figures 6 and 7).
package core

import (
	"sync/atomic"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// Protocol selects the locking protocol of §4.1.
type Protocol uint8

const (
	// ProtocolRW is CortenMM_rw: readers-writer locks down the tree.
	ProtocolRW Protocol = iota
	// ProtocolAdv is CortenMM_adv: RCU lockless traversal + MCS locks.
	ProtocolAdv
)

// String names the protocol.
func (p Protocol) String() string {
	if p == ProtocolAdv {
		return "adv"
	}
	return "rw"
}

// Options configures an address space.
type Options struct {
	// Machine is the simulated hardware this space runs on.
	Machine *cpusim.Machine
	// ISA selects the page-table format (default x86-64).
	ISA arch.ISA
	// Protocol selects CortenMM_rw or CortenMM_adv.
	Protocol Protocol
	// PerCoreVA gives every core its own virtual-address arena (§4.5).
	// Disabled, one arena serves all cores — the adv_base ablation of
	// §6.4.
	PerCoreVA bool
	// CoarseLocking makes every transaction lock the root PT page,
	// degenerating the protocol into one global lock. Only for the
	// ablation benchmarks that quantify the value of covering-page
	// granularity.
	CoarseLocking bool
	// SwapDev is the block device used by SwapOut (optional).
	SwapDev *mem.BlockDev
}

// AddrSpace is one CortenMM address space. It implements mm.MM, the
// transactional interface via Lock, and mem.RMapTarget for reverse
// mapping.
type AddrSpace struct {
	m     *cpusim.Machine
	tree  *pt.Tree
	isa   arch.ISA
	asid  tlb.ASID
	proto Protocol

	valloc *cpusim.PerCoreVA
	coarse bool
	// swapID is the swap device's object id on the machine (0: none).
	swapID uint32
	stats  mm.Stats
	// anonOwner is what this space's anonymous pages name as their
	// owner in the frames' migration reverse-map hints.
	anonOwner mem.AnonOwner

	// cursors is the per-core transaction-cursor cache (see Lock); its
	// length is the machine's core count, which the entry gates check
	// core IDs against.
	cursors []cachedCursor

	// daemon is the machine daemon this space is registered with, or nil.
	daemon atomic.Pointer[Daemon]
	// migrants counts daemon operations (migration, a sweep's
	// enumeration of the page table) currently operating on this space.
	// Destroy spins it to zero after marking the space destroyed, so
	// neither ever locks a page-table tree mid-teardown.
	migrants atomic.Int32
	// oomKilled marks a space torn down by the OOM killer: allocating
	// syscalls fail fast with ErrOOMKilled, releases still work.
	oomKilled atomic.Bool
	// destroyed makes Destroy exactly-once (the ASID free must not
	// double) and lets the reclaim sweeps refuse a space whose tree has
	// already been torn down.
	destroyed atomic.Bool
	// reclaimHand is the VA clock hand of the per-space reclaim scan:
	// the next sweep resumes at the first allocated chunk at or above it.
	reclaimHand atomic.Uint64
	// scanHand is the collapse scanner's VA clock hand, likewise.
	scanHand atomic.Uint64

	// batch holds the async-batch pipeline's cumulative counters
	// (see batch.go).
	batch batchCounters
}

// cachedCursor is one per-core cursor slot, padded to whole cache lines
// so core k's cursor tail and core k+1's cursor head never share one. It
// belongs to whichever transaction raised the core's transaction word
// from zero (see LockLevel), so it needs no flag of its own.
type cachedCursor struct {
	c RCursor
	_ [(64 - unsafe.Sizeof(RCursor{})%64) % 64]byte
}

// New creates an empty address space.
func New(o Options) (*AddrSpace, error) {
	if o.ISA == nil {
		o.ISA = arch.X8664(false)
	}
	if o.Machine == nil {
		o.Machine = cpusim.New(cpusim.Config{})
	}
	tree, err := pt.NewTree(o.Machine.Phys, o.ISA, o.Machine.Cores, o.Protocol == ProtocolRW)
	if err != nil {
		return nil, err
	}
	arenas := 1
	if o.PerCoreVA {
		arenas = o.Machine.Cores
	}
	a := &AddrSpace{
		m:       o.Machine,
		tree:    tree,
		isa:     o.ISA,
		asid:    o.Machine.AllocASID(),
		proto:   o.Protocol,
		valloc:  cpusim.NewPerCoreVA(arenas),
		coarse:  o.CoarseLocking,
		cursors: make([]cachedCursor, o.Machine.Cores),
	}
	a.SetSwapDev(o.SwapDev)
	a.anonOwner.Space = a
	tree.Owner = a
	return a, nil
}

// Name implements mm.MM.
func (a *AddrSpace) Name() string { return "cortenmm-" + a.proto.String() }

// ASID implements mm.MM.
func (a *AddrSpace) ASID() tlb.ASID { return a.asid }

// Stats implements mm.MM.
func (a *AddrSpace) Stats() *mm.Stats { return &a.stats }

// Machine returns the simulated hardware this space runs on.
func (a *AddrSpace) Machine() *cpusim.Machine { return a.m }

// SetSwapDev installs (or replaces) the swap device used by SwapOut and
// ReclaimRange (none, if the machine's object table has no room for one
// more). Pages already swapped to a previous device keep naming it.
func (a *AddrSpace) SetSwapDev(dev *mem.BlockDev) { a.swapID = a.m.Phys.RegisterDev(dev) }

// Tree exposes the page table for invariant checks in tests.
func (a *AddrSpace) Tree() *pt.Tree { return a.tree }

// Features implements mm.MM: CortenMM's Table-2 row. The paper leaves
// NUMA policies out (§4.5); this implementation has them — node-local
// first touch over distance-ordered zonelists, mem.SetAllocPolicy, and
// NUMA-balancing migration — so the row says so.
func (a *AddrSpace) Features() mm.Features {
	return mm.Features{
		OnDemandPaging: true,
		COW:            true,
		PageSwapping:   true,
		ReverseMapping: true,
		MmapedFile:     true,
		HugePage:       true,
		NUMAPolicy:     true,
	}
}

// state returns the PT-page state of pfn.
func (a *AddrSpace) state(pfn arch.PFN) *pt.PageState { return a.tree.State(pfn) }
