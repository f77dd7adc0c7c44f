// Package mm defines the memory-manager interface shared by CortenMM and
// the baseline systems (Linux-style VMA, RadixVM, NrOS) and the
// Linux-like syscall surface the paper's evaluation drives (§6.1).
// MM is the surface all five systems implement, so the benchmark
// harness runs identical workloads against every system. The optional
// ops are named interfaces (Forker, FileMapper, Remapper, Madviser,
// Swapper): a system lacks an op by not having its method, and Table 2's
// cow, file and swap cells are membership in Forker, FileMapper and
// Swapper. Features declares the columns no method answers.
package mm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// Flags modify Mmap behaviour.
type Flags uint32

const (
	// FlagPopulate eagerly faults in every page (MAP_POPULATE).
	FlagPopulate Flags = 1 << iota
	// FlagHuge2M requests 2-MiB huge-page mappings.
	FlagHuge2M
	// FlagHuge1G requests 1-GiB huge-page mappings.
	FlagHuge1G
)

// Errors returned by memory managers.
var (
	// ErrSegv is a segmentation fault: access to an invalid address or
	// with insufficient permission.
	ErrSegv = errors.New("mm: segmentation fault")
	// ErrExists means a fixed-address mapping collides with an existing one.
	ErrExists = errors.New("mm: mapping already exists")
	// ErrBadRange means a misaligned or out-of-bounds range.
	ErrBadRange = errors.New("mm: bad address range")
	// ErrBadCore means a core index outside the machine's cores.
	ErrBadCore = errors.New("mm: bad core index")
	// ErrDestroyed is returned by every call on an address space after
	// Destroy: its page table is gone, so there is nothing left to
	// operate on or read through. Destroy itself stays idempotent.
	ErrDestroyed = errors.New("mm: address space destroyed")
	// ErrNotSupported means this space's configuration refuses the
	// request: no swap device, a huge leaf that cannot split, an ISA
	// without level-N leaves, a span that cannot collapse. An op a
	// system does not implement is a missing method, not this error.
	ErrNotSupported = errors.New("mm: operation not supported")
)

// Gate is the first check of every entry point of every system: the
// space is alive (dead is set by its Destroy) and core indexes one of
// the machine's cores — the per-core words an entry touches next would
// otherwise be indexed out of range. Nothing is counted, ticked or
// timed for a refused call. Both sentinels are returned bare.
func Gate(dead *atomic.Bool, core, cores int) error {
	if dead.Load() {
		return ErrDestroyed
	}
	if uint(core) >= uint(cores) {
		return ErrBadCore
	}
	return nil
}

// GateRange is Gate for entry points that take a caller-chosen range,
// which must also be canonical.
func GateRange(dead *atomic.Bool, core, cores int, va arch.Vaddr, size uint64) error {
	if err := Gate(dead, core, cores); err != nil {
		return err
	}
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRange, err)
	}
	return nil
}

// Features is the part of one system's Table-2 row that no method
// answers. The cow, file and swap cells are membership in Forker,
// FileMapper and Swapper.
type Features struct {
	OnDemandPaging bool
	ReverseMapping bool
	HugePage       bool
	NUMAPolicy     bool
}

// Stats holds cumulative operation counters for one address space.
// KernelNanos approximates time spent "in the kernel" (inside MM calls)
// for the user/kernel breakdowns of Figures 16 and 17. It advances only
// while a TimeKernel session is open; the op counts are unconditional.
type Stats struct {
	Mmaps       atomic.Uint64
	Munmaps     atomic.Uint64
	Mprotects   atomic.Uint64
	PageFaults  atomic.Uint64
	SoftFaults  atomic.Uint64 // spurious faults resolved without changes
	COWBreaks   atomic.Uint64
	SwapIns     atomic.Uint64
	SwapOuts    atomic.Uint64
	Forks       atomic.Uint64
	Collapses   atomic.Uint64 // huge-page promotions
	Demotions   atomic.Uint64 // huge-page splits (cold spans demoted pre-reclaim)
	KernelNanos atomic.Uint64

	// timing counts the open TimeKernel sessions; it is not a counter and
	// has no Snapshot twin.
	timing atomic.Int32
}

// clockBase anchors the bracket's timestamps, so an armed edge costs one
// monotonic read (no wall clock) and a timestamp is never 0.
var clockBase = time.Now()

// TimeKernel opens a kernel-time measurement session on s and returns
// the function that closes it (call it once). Like pprof.StartCPUProfile
// it is switched on by a reader around the interval it reports, not
// configured into the address space: while no session is open the
// KernelEnter/KernelExit bracket reads no clock and KernelNanos stands
// still. Sessions are counted, so nested and concurrent readers compose.
// A call in flight when the first session opens is not timed; one in
// flight when the last closes is timed to its end.
func (s *Stats) TimeKernel() (stop func()) {
	s.timing.Add(1)
	return func() { s.timing.Add(-1) }
}

// KernelEnter opens the kernel-time bracket every MM entry point wraps
// its work in: defer st.KernelExit(st.KernelEnter()). With no session
// open it costs one atomic load and returns 0.
func (s *Stats) KernelEnter() int64 {
	if s.timing.Load() == 0 {
		return 0
	}
	return int64(time.Since(clockBase))
}

// KernelExit closes the bracket opened by KernelEnter, charging the
// elapsed time to KernelNanos iff the entry was timed.
func (s *Stats) KernelExit(t0 int64) {
	if t0 != 0 {
		s.KernelNanos.Add(uint64(int64(time.Since(clockBase)) - t0))
	}
}

// Snapshot is a copyable view of Stats.
type Snapshot struct {
	Mmaps, Munmaps, Mprotects         uint64
	PageFaults, SoftFaults, COWBreaks uint64
	SwapIns, SwapOuts, Forks          uint64
	Collapses, Demotions              uint64
	KernelNanos                       uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Mmaps:       s.Mmaps.Load(),
		Munmaps:     s.Munmaps.Load(),
		Mprotects:   s.Mprotects.Load(),
		PageFaults:  s.PageFaults.Load(),
		SoftFaults:  s.SoftFaults.Load(),
		COWBreaks:   s.COWBreaks.Load(),
		SwapIns:     s.SwapIns.Load(),
		SwapOuts:    s.SwapOuts.Load(),
		Forks:       s.Forks.Load(),
		Collapses:   s.Collapses.Load(),
		Demotions:   s.Demotions.Load(),
		KernelNanos: s.KernelNanos.Load(),
	}
}

// MM is the memory-management surface all five systems implement: the
// Linux-compatible syscalls every experiment drives plus the simulated
// user-level access path (Touch/Load/Store drive TLB lookups, hardware
// walks, and page faults). The rest of §3.1's "full featured" surface
// is the optional interfaces below.
type MM interface {
	// ASID is the address-space tag used in TLBs.
	ASID() tlb.ASID

	// Mmap allocates and maps size bytes of private anonymous memory.
	Mmap(core int, size uint64, perm arch.Perm, fl Flags) (arch.Vaddr, error)
	// MmapFixed maps private anonymous memory at an exact address.
	MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl Flags) error
	// Munmap removes any mappings in [va, va+size).
	Munmap(core int, va arch.Vaddr, size uint64) error
	// Mprotect changes permissions of [va, va+size).
	Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error

	// Touch simulates a user access of the given type at va, faulting
	// pages in as needed. Returns ErrSegv for illegal accesses.
	Touch(core int, va arch.Vaddr, acc pt.Access) error
	// Load reads one byte through the MMU.
	Load(core int, va arch.Vaddr) (byte, error)
	// Store writes one byte through the MMU (breaking COW as needed).
	Store(core int, va arch.Vaddr, b byte) error

	// Destroy tears down the address space, releasing all resources.
	Destroy(core int)

	// Features reports the Table-2 columns no method answers.
	Features() Features
	// Stats exposes the cumulative counters.
	Stats() *Stats
}

// Forker is the optional fork surface (Table 2's COW column): clone
// the address space with copy-on-write semantics.
type Forker interface {
	Fork(core int) (MM, error)
}

// FileMapper is the optional file-mapping surface (Table 2's
// mmaped-file column).
type FileMapper interface {
	// MmapFile maps size bytes of f starting at page pgoff.
	MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error)
	// Msync writes back dirty shared file pages in the range.
	Msync(core int, va arch.Vaddr, size uint64) error
}

// Remapper is the optional mremap(MREMAP_MAYMOVE) surface: resize the
// mapping at oldVA, moving it if it cannot grow in place.
type Remapper interface {
	Mremap(core int, oldVA arch.Vaddr, oldSize, newSize uint64) (arch.Vaddr, error)
}

// Madviser is the optional madvise(MADV_DONTNEED) surface: drop the
// physical pages behind a range while keeping the virtual allocation,
// so the next access faults in fresh zeroed pages. Caching allocators
// (tcmalloc's aggressive decommit) use it to return memory without
// giving up address space.
type Madviser interface {
	MadviseDontNeed(core int, va arch.Vaddr, size uint64) error
}

// Swapper is the optional swapping surface (Table 2's page-swapping
// column): write resident pages to a block device and mark them
// Swapped.
type Swapper interface {
	SwapOut(core int, va arch.Vaddr, size uint64) (int, error)
}
