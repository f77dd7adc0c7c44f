// Package cortenmm is a library-grade reproduction of "CortenMM:
// Efficient Memory Management with Strong Correctness Guarantees"
// (SOSP 2025): a memory management system with a single level of
// abstraction — no VMA layer — where a transactional cursor over the
// page table is the only way to program the (simulated) MMU.
//
// Because the paper's system lives inside an OS kernel and Go cannot,
// the library ships its own hardware substrate: simulated physical
// memory with a buddy allocator and page descriptors, radix page tables
// with x86-64 (optionally with MPK), RISC-V Sv48 and ARM64 entry formats
// (one PTE codec over a bit table per ISA), per-core TLBs with three
// shootdown protocols, epoch-based RCU, and a multicore machine
// abstraction. On top of that substrate it provides:
//
//   - AddrSpace: the CortenMM address space with both locking protocols
//     (ProtocolRW and ProtocolAdv), on-demand paging, COW fork, file
//     mappings with reverse mapping, swapping and huge pages;
//   - Tx: the transactional interface of the paper's Figure 4
//     (Query/Map/Mark/Unmap/Protect under one atomic range lock);
//   - the baselines the paper evaluates against — a Linux-style
//     VMA-based manager, RadixVM-style per-core page-table replication,
//     and NrOS-style node replication — behind one MM interface;
//   - an executable verification analog of the paper's Verus proofs
//     (see internal/spec) and a benchmark harness regenerating every
//     figure and table of the evaluation (see cmd/cortenbench).
//
// # Quick start
//
//	machine := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 8})
//	as, err := cortenmm.New(cortenmm.Options{
//		Machine:  machine,
//		Protocol: cortenmm.ProtocolAdv,
//	})
//	if err != nil { ... }
//	va, _ := as.Mmap(0, 1<<20, cortenmm.PermRW, 0) // on-demand, no frames yet
//	_ = as.Store(0, va, 42)                        // page fault backs the page
//	b, _ := as.Load(0, va)                         // b == 42
//	_ = as.Munmap(0, va, 1<<20)
//
// Each call carries the simulated core number of the executing thread;
// use Machine.Run to drive one goroutine per core.
package cortenmm

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/nros"
	"cortenmm/internal/pt"
	"cortenmm/internal/radixvm"
	"cortenmm/internal/tlb"
	"cortenmm/internal/vma"
)

// Core value and state types, aliased so users never import internal
// packages.
type (
	// Vaddr is a virtual address in the simulated 48-bit address space.
	Vaddr = arch.Vaddr
	// PFN is a physical frame number.
	PFN = arch.PFN
	// Perm is a page permission set.
	Perm = arch.Perm
	// ProtKey is an Intel MPK protection key.
	ProtKey = arch.ProtKey
	// ISA is a page-table entry codec (x86-64, RISC-V Sv48 or AArch64);
	// X8664, RISCV and ARM64 return one, and nil means x86-64.
	ISA = arch.ISA
	// Status is the state of one virtual page (Figure 4's Status enum):
	// Kind and Perm are plain fields — Status{Kind: StatusPrivateAnon,
	// Perm: PermRW} is what Tx.Mark takes for on-demand memory — and the
	// rest sits behind WithKey/WithHuge, FileStatus and the accessors
	// Key, HugeLevel, Page, Off, Block, File. Tx.Mark refuses, with
	// ErrBadRange, a status the page table's one-word entries cannot hold.
	Status = pt.Status
	// StatusKind enumerates Status variants.
	StatusKind = pt.StatusKind
	// Access is a simulated memory-access type.
	Access = pt.Access
	// Translation is a resolved virtual-to-physical mapping.
	Translation = pt.Translation
	// Machine is the simulated multicore machine.
	Machine = cpusim.Machine
	// File is a simulated file with a page cache, counted by the page-table
	// words that name it.
	File = mem.File
	// BlockDev is a simulated swap device (Machine.Phys.Swap()).
	BlockDev = mem.BlockDev
	// AddrSpace is a CortenMM address space.
	AddrSpace = core.AddrSpace
	// Tx is the transactional cursor returned by AddrSpace.Lock; it is
	// the paper's RCursor.
	Tx = core.RCursor
	// Protocol selects a locking protocol.
	Protocol = core.Protocol
	// Options configures an AddrSpace.
	Options = core.Options
	// MM is the surface every memory manager in this module implements
	// (CortenMM and the three baselines); the optional ops are the
	// interfaces below, which a system lacking the op does not satisfy.
	MM = mm.MM
	// Features is the part of a system's Table-2 row no method answers.
	Features = mm.Features
	// Flags modifies Mmap behaviour.
	Flags = mm.Flags
	// Stats holds an address space's operation counters.
	Stats = mm.Stats
	// TLBMode selects the shootdown protocol.
	TLBMode = tlb.Mode
	// Forker is the optional COW fork surface.
	Forker = mm.Forker
	// FileMapper is the optional file mmap/msync surface.
	FileMapper = mm.FileMapper
	// Remapper is the optional mremap surface.
	Remapper = mm.Remapper
	// Madviser is the optional madvise(MADV_DONTNEED) surface.
	Madviser = mm.Madviser
	// Swapper is the optional swap-out surface.
	Swapper = mm.Swapper
)

// Permission bits.
const (
	PermRead   = arch.PermRead
	PermWrite  = arch.PermWrite
	PermExec   = arch.PermExec
	PermUser   = arch.PermUser
	PermCOW    = arch.PermCOW
	PermShared = arch.PermShared
	PermRW     = arch.PermRW
	PermRWX    = arch.PermRWX
)

// Address-space geometry.
const (
	PageSize = arch.PageSize
	// UserLo/UserHi bound the range the VA allocators hand out;
	// addresses below UserLo are free for MmapFixed.
	UserLo = cpusim.UserLo
	UserHi = cpusim.UserHi
)

// Locking protocols (§4.1).
const (
	// ProtocolRW is CortenMM_rw: readers-writer locks down the tree.
	ProtocolRW = core.ProtocolRW
	// ProtocolAdv is CortenMM_adv: RCU traversal plus MCS subtree locks.
	ProtocolAdv = core.ProtocolAdv
)

// Mmap flags.
const (
	FlagPopulate = mm.FlagPopulate
	FlagHuge2M   = mm.FlagHuge2M
	FlagHuge1G   = mm.FlagHuge1G
)

// Access types.
const (
	AccessRead  = pt.AccessRead
	AccessWrite = pt.AccessWrite
	AccessExec  = pt.AccessExec
)

// Status kinds.
const (
	StatusInvalid     = pt.StatusInvalid
	StatusMapped      = pt.StatusMapped
	StatusPrivateAnon = pt.StatusPrivateAnon
	StatusPrivateFile = pt.StatusPrivateFile
	StatusSharedAnon  = pt.StatusSharedAnon
	StatusSharedFile  = pt.StatusSharedFile
	StatusSwapped     = pt.StatusSwapped
)

// TLB shootdown protocols (§4.5).
const (
	TLBSync     = tlb.ModeSync
	TLBEarlyAck = tlb.ModeEarlyAck
	TLBLATR     = tlb.ModeLATR
)

// Shared errors.
var (
	ErrSegv         = mm.ErrSegv
	ErrExists       = mm.ErrExists
	ErrBadRange     = mm.ErrBadRange
	ErrBadCore      = mm.ErrBadCore
	ErrNotSupported = mm.ErrNotSupported
)

// MachineConfig sizes the simulated machine.
type MachineConfig struct {
	// Cores is the number of simulated CPUs (default 4).
	Cores int
	// NUMANodes partitions the cores into contiguous blocks, core c on
	// node c*NUMANodes/Cores (default 1; clamped to Cores and Frames/2,
	// so every node has a core and two frames).
	NUMANodes int
	// Frames is physical memory in 4-KiB frames (default 64Ki = 256MiB;
	// at least 2).
	Frames int
	// TLB selects the shootdown protocol (default TLBSync; an unknown
	// mode runs as TLBSync).
	TLB TLBMode
}

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) *Machine {
	return cpusim.New(cpusim.Config{
		Cores:     cfg.Cores,
		NUMANodes: cfg.NUMANodes,
		Frames:    cfg.Frames,
		TLBMode:   cfg.TLB,
	})
}

// New creates a CortenMM address space. Zero-value Options give an
// x86-64 CortenMM_rw space on a fresh default machine.
func New(o Options) (*AddrSpace, error) { return core.New(o) }

// NewFile creates a simulated file of the given size backed by the
// machine's page cache.
func NewFile(m *Machine, name string, size uint64) *File {
	return mem.NewFile(m.Phys, name, size)
}

// FileStatus is the status of not-resident pages of f — kind
// StatusPrivateFile, StatusSharedFile or StatusSharedAnon — starting at
// f's page off; Tx.Mark accepts it while some space maps f.
var FileStatus = pt.FileStatus

// X8664 returns the x86-64 PTE codec; set mpk for protection keys.
func X8664(mpk bool) ISA { return arch.X8664(mpk) }

// RISCV returns the RISC-V Sv48 PTE codec.
func RISCV() ISA { return arch.RISCV() }

// ARM64 returns the AArch64 VMSAv8-64 PTE codec.
func ARM64() ISA { return arch.ARM64() }

// NewLinuxBaseline creates a Linux-style two-level (VMA + page table)
// address space on m — the paper's main comparison point.
func NewLinuxBaseline(m *Machine, isa ISA) (MM, error) { return vma.New(m, isa) }

// NewRadixVMBaseline creates a RadixVM-style space with per-core
// page-table replicas on m.
func NewRadixVMBaseline(m *Machine, isa ISA) (MM, error) { return radixvm.New(m, isa) }

// NewNrOSBaseline creates an NrOS-style node-replicated space on m.
func NewNrOSBaseline(m *Machine, isa ISA) (MM, error) { return nros.New(m, isa) }
