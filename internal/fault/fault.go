// Package fault is the process-wide registry of named points in the
// implementation. A point is one of two kinds. A Fail site guards a
// failure path (e.g. "mem.alloc-frame"): the code asks Site.Fire()
// whether to take it, and tests arm the site with a seeded PRNG, a firing
// probability and an optional after-N trigger, then exercise a workload
// and assert that the unwind left the system consistent. A Delay point
// marks a window inside a multi-step protocol (a shootdown between local
// and remote invalidation, a reclaim sweep with its pages written, a
// break around its grace period): the code calls Site.Pause(), which
// an armed point turns into a few yields — widening the window — or, for
// a point a test has parked, into a stop until the test releases it,
// which is how a model-checker counterexample is replayed against the
// real code.
//
// The disabled fast path of both calls is a single atomic load of a
// package-global armed-site counter, so instrumenting hot paths costs
// nothing measurable when nothing is armed (the pr5 rows of
// `git show ef2b810:bench_results.txt`).
// Armed sites draw from a per-site splitmix64 stream, so a (seed, prob,
// afterN) triple replays the exact same firing pattern on every run.
package fault

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// armed counts the sites currently armed process-wide. Fire() and
// Pause() return immediately when it is zero — the zero-cost-when-
// disabled check.
var armed atomic.Int64

var (
	registryMu sync.Mutex
	registry   []*Site
)

// Kind is what a site does to the code that reaches it while armed.
type Kind uint8

const (
	// Fail sites make Fire report true: the caller takes its failure path.
	Fail Kind = iota
	// Delay points make Pause hold the caller up; it never fails.
	Delay
)

// Site is one named point.
type Site struct {
	name string
	kind Kind

	on      atomic.Bool   // site is armed
	prng    atomic.Uint64 // splitmix64 state
	thresh  atomic.Uint64 // fire when next() < thresh; ^0 == always
	after   atomic.Int64  // checks to skip before the site may fire
	checked atomic.Uint64 // checks while armed
	fired   atomic.Uint64 // checks that fired
	park    atomic.Pointer[Parked]
}

// The canonical sites and points. Packages guard their failure paths and
// mark their windows with these; tests arm them by identity, or all of
// them through Sites.
var (
	// MemAllocFrame fails PhysMem.AllocFrame with ErrOutOfMemory.
	MemAllocFrame = New("mem.alloc-frame")
	// MemAllocBatch makes PhysMem.AllocFrameBatch return 0 frames.
	MemAllocBatch = New("mem.alloc-batch")
	// MemAllocHuge fails PhysMem.AllocFrames (order > 0).
	MemAllocHuge = New("mem.alloc-huge")
	// MemMigrateCopy fails a frame migration before the copy/remap runs.
	// Its one site is mem's migration path, PhysMem.migrate: it returns an
	// OOM-class error (compaction skips the candidate), and the source
	// page stays mapped and intact.
	MemMigrateCopy = New("mem.migrate-copy")
	// SwapWrite fails BlockDev.Write, the swap-out I/O path.
	SwapWrite = New("swap.write")
	// PTAllocPage fails Tree.AllocPTPage, hit by every table split.
	PTAllocPage = New("pt.alloc-ptpage")

	// TLBShootdownDelay sits between a shootdown initiator's local
	// invalidation and the remote fan-out, widening the window in which
	// remote cores still hold the stale translation (§4.5's staleness
	// tolerance).
	TLBShootdownDelay = NewPoint("tlb.shootdown-delay")
	// ReclaimCollected is a reclaim sweep with its candidates collected
	// under the covering lock and nothing evicted yet.
	ReclaimCollected = NewPoint("reclaim:collected")
	// ReclaimSubmitted is a reclaim sweep with its candidates written to
	// swap and none marked: every candidate is still mapped, write-
	// protected, its frame referenced.
	ReclaimSubmitted = NewPoint("reclaim:submitted")
	// MigratePreBarrier is a break (migration, collapse or eviction) with
	// its pages write-protected and shot down, before the grace period;
	// the transaction holds its locks.
	MigratePreBarrier = NewPoint("migrate:pre-barrier")
	// MigratePostBarrier is the same break after the grace period, before
	// the transaction copies or writes the pages.
	MigratePostBarrier = NewPoint("migrate:post-barrier")
)

// New declares a Fail site. Call once per site, at package init.
func New(name string) *Site { return declare(name, Fail) }

// NewPoint declares a Delay point. Call once per point, at package init.
func NewPoint(name string) *Site { return declare(name, Delay) }

func declare(name string, kind Kind) *Site {
	s := &Site{name: name, kind: kind}
	registryMu.Lock()
	registry = append(registry, s)
	registryMu.Unlock()
	return s
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

// Kind returns what the site does when it fires.
func (s *Site) Kind() Kind { return s.kind }

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

// Disarm disables the site, and forgets a parking no goroutine has
// reached yet. Counters are preserved for inspection.
func (s *Site) Disarm() {
	s.park.Store(nil)
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

// Pause is a Delay point's call. Disarmed it costs what Fire costs; a
// parked point stops the first goroutine to reach it until the test
// releases it, an armed one yields the caller each time it fires.
func (s *Site) Pause() {
	if armed.Load() != 0 {
		s.pause()
	}
}

func (s *Site) pause() {
	if p := s.park.Swap(nil); p != nil {
		close(p.reached)
		<-p.release
		return
	}
	if s.fire() {
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
	}
}

// Parked is a Delay point armed to stop one goroutine: the first to
// reach the point waits there until Release.
type Parked struct{ reached, release chan struct{} }

// Park arms the point to stop the next goroutine that reaches it; later
// ones only yield. Disarm the point when the test is done with it.
func (s *Site) Park() *Parked {
	p := &Parked{reached: make(chan struct{}), release: make(chan struct{})}
	s.park.Store(p)
	s.Arm(Config{})
	return p
}

// Await blocks until a goroutine is stopped at the point.
func (p *Parked) Await() { <-p.reached }

// Release lets the stopped goroutine (or the one still to come) go on.
func (p *Parked) Release() { close(p.release) }

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
