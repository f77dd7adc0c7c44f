// Package fault is a process-wide deterministic fault-injection
// registry. Subsystems declare named sites (e.g. "mem.alloc-frame") and
// guard their failure paths with Site.Fire(); tests arm a site with a
// seeded PRNG, a firing probability and an optional after-N trigger,
// then exercise a workload and assert that the unwind left the system
// consistent.
//
// The disabled fast path is a single atomic load of a package-global
// armed-site counter, so instrumenting hot allocation paths costs
// nothing measurable when no fault is armed (the pr5 rows of
// `git show ef2b810:bench_results.txt`).
// Armed sites draw from a per-site splitmix64 stream, so a (seed, prob,
// afterN) triple replays the exact same firing pattern on every run.
package fault

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// armed counts the sites currently armed process-wide. Fire() returns
// immediately when it is zero — the zero-cost-when-disabled check.
var armed atomic.Int64

var (
	registryMu sync.Mutex
	registry   []*Site
)

// Site is one named injection point.
type Site struct {
	name string

	on      atomic.Bool   // site is armed
	prng    atomic.Uint64 // splitmix64 state
	thresh  atomic.Uint64 // fire when next() < thresh; ^0 == always
	after   atomic.Int64  // checks to skip before the site may fire
	checked atomic.Uint64 // checks while armed
	fired   atomic.Uint64 // checks that fired
}

// The canonical sites. Packages guard their failure paths with these;
// tests arm them by identity (or look them up with Lookup).
var (
	// MemAllocFrame fails PhysMem.AllocFrame with ErrOutOfMemory.
	MemAllocFrame = New("mem.alloc-frame")
	// MemAllocBatch makes PhysMem.AllocFrameBatch return 0 frames.
	MemAllocBatch = New("mem.alloc-batch")
	// MemAllocHuge fails PhysMem.AllocFrames (order > 0).
	MemAllocHuge = New("mem.alloc-huge")
	// MemMigrateCopy fails a frame migration before the copy/remap runs:
	// single migrations return an OOM-class error, compaction skips the
	// candidate. Either way the source page stays mapped and intact.
	MemMigrateCopy = New("mem.migrate-copy")
	// SwapWrite fails BlockDev.Write, the swap-out I/O path.
	SwapWrite = New("swap.write")
	// PTAllocPage fails Tree.AllocPTPage, hit by every table split.
	PTAllocPage = New("pt.alloc-ptpage")
	// TLBShootdownDelay yields the delivering goroutine mid-shootdown,
	// widening the remote-staleness window instead of failing.
	TLBShootdownDelay = New("tlb.shootdown-delay")
	// AIOSubmit refuses an aio.Queue submission — the SQE is never
	// queued, so the op's side effects must not have happened yet.
	AIOSubmit = New("aio.submit")
	// AIOComplete fails a queued aio request at reap time, after the
	// submission succeeded — the batched-completion unwind path.
	AIOComplete = New("aio.complete")
)

// New registers a named site. Call once per site, at package init.
func New(name string) *Site {
	s := &Site{name: name}
	registryMu.Lock()
	registry = append(registry, s)
	registryMu.Unlock()
	return s
}

// Lookup finds a registered site by name, or nil.
func Lookup(name string) *Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, s := range registry {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Sites snapshots the registry.
func Sites() []*Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	return append([]*Site(nil), registry...)
}

// Config selects when an armed site fires.
type Config struct {
	// Seed seeds the site's PRNG stream (0 is treated as 1).
	Seed uint64
	// Prob is the per-check firing probability; values <= 0 or >= 1
	// mean "fire on every eligible check".
	Prob float64
	// AfterN makes the first N checks pass before the site becomes
	// eligible to fire — "fail the Nth allocation" style triggers.
	AfterN uint64
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// String implements fmt.Stringer.
func (s *Site) String() string { return s.name }

// Arm enables the site and resets its counters and PRNG stream.
func (s *Site) Arm(cfg Config) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s.prng.Store(seed)
	th := ^uint64(0)
	if cfg.Prob > 0 && cfg.Prob < 1 {
		th = uint64(cfg.Prob * math.MaxUint64)
	}
	s.thresh.Store(th)
	s.after.Store(int64(cfg.AfterN))
	s.checked.Store(0)
	s.fired.Store(0)
	if !s.on.Swap(true) {
		armed.Add(1)
	}
}

// Disarm disables the site. Counters are preserved for inspection.
func (s *Site) Disarm() {
	if s.on.Swap(false) {
		armed.Add(-1)
	}
}

// DisarmAll disarms every registered site.
func DisarmAll() {
	for _, s := range Sites() {
		s.Disarm()
	}
}

// AnyArmed reports whether any site is armed.
func AnyArmed() bool { return armed.Load() > 0 }

// Stats returns how many times the site was checked and fired since it
// was last armed.
func (s *Site) Stats() (checked, fired uint64) {
	return s.checked.Load(), s.fired.Load()
}

// Fire reports whether the fault should trigger at this check. The
// disabled path is one atomic load; the armed path consumes one PRNG
// draw per eligible check so runs replay deterministically.
func (s *Site) Fire() bool {
	if armed.Load() == 0 {
		return false
	}
	return s.fire()
}

func (s *Site) fire() bool {
	if !s.on.Load() {
		return false
	}
	s.checked.Add(1)
	if s.after.Add(-1) >= 0 {
		return false
	}
	if th := s.thresh.Load(); th != ^uint64(0) && s.next() >= th {
		return false
	}
	s.fired.Add(1)
	return true
}

// next advances the splitmix64 stream. The additive step is atomic, so
// concurrent checkers each draw a distinct value from the sequence.
func (s *Site) next() uint64 {
	z := s.prng.Add(0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Errorf wraps base in a message identifying the site, preserving
// errors.Is(err, base) for the caller's error-class checks.
func (s *Site) Errorf(base error) error {
	return fmt.Errorf("%w (fault injected at %s)", base, s.name)
}
