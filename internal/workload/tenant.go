package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
)

// ErrFault is returned by TenantView accessors when an access falls
// outside the tenant's window. It is the sandbox analogue of a guest
// memory fault: the host must refuse the access, never touch memory
// outside the view.
var ErrFault = errors.New("workload: tenant memory access out of bounds")

// TenantView is a bounds-checked window over one tenant's address
// space, in the style of a wasm guest-memory view: every accessor
// validates offsets against the window before going anywhere near the
// MMU, and out-of-range accesses return ErrFault instead of escaping
// into neighbouring mappings. All traffic goes through mm.MM.Load /
// mm.MM.Store, so serves hit the TLB and fault pages like real guest
// accesses would.
type TenantView struct {
	s    mm.MM
	base arch.Vaddr
	size uint64
}

// NewTenantView wraps [base, base+size) of s.
func NewTenantView(s mm.MM, base arch.Vaddr, size uint64) TenantView {
	return TenantView{s: s, base: base, size: size}
}

// Size reports the window length in bytes.
func (v TenantView) Size() uint64 { return v.size }

// check validates [off, off+n) against the window, overflow included.
func (v TenantView) check(off, n uint64) error {
	if n > v.size || off > v.size-n {
		return fmt.Errorf("%w: [%#x,+%#x) of %#x", ErrFault, off, n, v.size)
	}
	return nil
}

// Get reads one byte at off through the MMU.
func (v TenantView) Get(core int, off uint64) (byte, error) {
	if err := v.check(off, 1); err != nil {
		return 0, err
	}
	return v.s.Load(core, v.base+arch.Vaddr(off))
}

// Set writes one byte at off through the MMU, faulting the page in on
// first touch.
func (v TenantView) Set(core int, off uint64, b byte) error {
	if err := v.check(off, 1); err != nil {
		return err
	}
	return v.s.Store(core, v.base+arch.Vaddr(off), b)
}

// Range reads n bytes starting at off into a fresh slice — the "copy a
// response out of the sandbox" serve path. The bounds check covers the
// whole range up front, so a serve can never read past the window even
// when off+n overflows.
func (v TenantView) Range(core int, off, n uint64) ([]byte, error) {
	if err := v.check(off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := uint64(0); i < n; i++ {
		b, err := v.s.Load(core, v.base+arch.Vaddr(off+i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// TenantFarmConfig parameterizes a tenant-churn run: a farm of
// short-lived sandboxed address spaces, each doing
// create → fault-in → serve → teardown. This is the serverless /
// multi-tenant sandbox pattern where ASID lifecycle dominates: every
// teardown used to cost an all-core shootdown, and a monotonic ASID
// counter walks the tag space so fast that unrelated tenants
// conservatively kill each other's TLB fills.
type TenantFarmConfig struct {
	// Cores is the number of farm worker cores (one goroutine per core).
	Cores int
	// Tenants is the total number of tenants churned across all cores.
	Tenants int
}

// The farm's fixed shape.
const (
	// liveFactor×Cores tenants are kept warm at once in the shared ring.
	// Any worker serves any warm tenant — like a serverless pool, a
	// sandbox's translations end up cached on every core, so its
	// teardown is visible machine-wide. 24×Cores deliberately exceeds
	// the TLB's 64 epoch cells: a warm set wider than the cell stride is
	// what makes a monotonic allocator's tag walk alias live tenants.
	liveFactor = 24
	// tenantPages is the sandbox window size in pages.
	tenantPages = 16
	// serveOps is the number of serve accesses a worker issues across
	// the warm ring after each tenant creation.
	serveOps = 64
)

// TenantFarmResult is the measured outcome of one farm run.
type TenantFarmResult struct {
	Tenants int
	Elapsed time.Duration
	// ServeOps counts completed in-bounds serve accesses.
	ServeOps uint64
	// StaleReads counts serves that returned a byte different from the
	// tenant's own deterministic pattern — the signature of a stale TLB
	// translation leaking another (dead) tenant's frame. Must be zero.
	StaleReads uint64
	// BoundsProbes counts deliberate out-of-window accesses issued;
	// BoundsEscapes counts those that were NOT refused with ErrFault.
	// Escapes must be zero.
	BoundsProbes  uint64
	BoundsEscapes uint64
	// PeakRSSPages is the maximum simultaneously resident data-page
	// count across the whole farm (per-tenant RSS is tenantPages
	// once faulted in; the peak tracks the warm ring).
	PeakRSSPages uint64
}

// TenantsPerSec is the farm's headline churn throughput.
func (r TenantFarmResult) TenantsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Tenants) / r.Elapsed.Seconds()
}

// tenant is one live sandbox: its space, its window, its pattern byte,
// and its resident-page count.
type tenant struct {
	s    mm.MM
	view TenantView
	pat  byte
	rss  uint64
}

// patByte derives the tenant's deterministic fill pattern from its
// global sequence number; never zero, so a stale zero-filled page is
// also detected.
func patByte(id uint64) byte {
	return byte(id*131+17) | 1
}

// farmRing is the shared pool of warm tenants. Serves run under the
// read lock (a popped tenant can never be mid-serve); retirement pops
// under the write lock and tears down outside it.
type farmRing struct {
	mu   sync.RWMutex
	live []*tenant
}

func (f *farmRing) push(t *tenant) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = append(f.live, t)
	return len(f.live)
}

func (f *farmRing) popOldest(ifAtLeast int) *tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.live) < ifAtLeast {
		return nil
	}
	t := f.live[0]
	f.live = f.live[1:]
	return t
}

// TenantFarm churns cfg.Tenants short-lived address spaces built by
// factory across cfg.Cores cores and reports throughput plus the
// correctness counters. All workers share one warm ring of
// liveFactor×Cores tenants: every step retires the oldest tenant
// (verify, destroy) once the ring is full, creates and faults in a new
// one, then serves reads across the ring — including tenants faulted in on other cores —
// verifying every byte against the owner's pattern. Cross-core serving
// caches each sandbox's translations on every core, so a monotonic
// allocator's teardown flush fans out machine-wide and its tag-space
// walk conservatively kills unrelated tenants' fills; with recycling
// the teardown is free and any stale translation surviving a recycle
// shows up as a StaleReads hit, not a silent wrong answer.
func TenantFarm(m *cpusim.Machine, factory func() (mm.MM, error), cfg TenantFarmConfig) (TenantFarmResult, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = m.Cores
	}
	if cfg.Tenants <= 0 {
		return TenantFarmResult{}, fmt.Errorf("workload: tenant farm needs Tenants > 0")
	}
	winBytes := uint64(tenantPages * arch.PageSize)

	var (
		ring     farmRing
		serves   atomic.Uint64
		stale    atomic.Uint64
		probes   atomic.Uint64
		escapes  atomic.Uint64
		curRSS   atomic.Int64
		peakRSS  atomic.Int64
		nextID   atomic.Uint64
		firstErr atomic.Pointer[error]
	)
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}
	addRSS := func(d int64) {
		cur := curRSS.Add(d)
		for {
			p := peakRSS.Load()
			if cur <= p || peakRSS.CompareAndSwap(p, cur) {
				return
			}
		}
	}

	perCore := (cfg.Tenants + cfg.Cores - 1) / cfg.Cores
	start := time.Now()
	m.Run(cfg.Cores, func(core int) {
		retire := func(t *tenant) {
			// Exit audit: the tenant's bytes must still be its own.
			for p := 0; p < tenantPages; p++ {
				b, err := t.view.Get(core, uint64(p)*arch.PageSize)
				if err != nil {
					fail(err)
					return
				}
				if b != t.pat {
					stale.Add(1)
				}
			}
			t.s.Destroy(core)
			addRSS(-int64(t.rss))
		}
		base := core * perCore
		for i := 0; i < perCore && base+i < cfg.Tenants; i++ {
			if firstErr.Load() != nil {
				break
			}
			if t := ring.popOldest(liveFactor * cfg.Cores); t != nil {
				retire(t)
			}
			// Create and fault in the new tenant on this core.
			id := nextID.Add(1)
			s, err := factory()
			if err != nil {
				fail(err)
				break
			}
			va, err := s.Mmap(core, winBytes, arch.PermRW, 0)
			if err != nil {
				s.Destroy(core)
				fail(err)
				break
			}
			t := &tenant{s: s, view: NewTenantView(s, va, winBytes), pat: patByte(id)}
			for p := 0; p < tenantPages; p++ {
				if err := t.view.Set(core, uint64(p)*arch.PageSize, t.pat); err != nil {
					fail(err)
					break
				}
				t.rss++
			}
			addRSS(int64(t.rss))

			// The sandbox boundary: probe one byte past the window and
			// a range that would overflow off+n. Both must be refused.
			probes.Add(2)
			if _, err := t.view.Get(core, winBytes); !errors.Is(err, ErrFault) {
				escapes.Add(1)
			}
			if _, err := t.view.Range(core, winBytes-4, ^uint64(0)-2); !errors.Is(err, ErrFault) {
				escapes.Add(1)
			}
			ring.push(t)

			// Serve across the warm ring — whichever cores faulted the
			// tenants in — verifying contents. Every 16th op exercises
			// the Range copy path. The read lock pins ring membership;
			// retirement waits for serves in flight.
			ring.mu.RLock()
			n := len(ring.live)
			for op := 0; op < serveOps && n > 0; op++ {
				pick := (op*2654435761 + int(id)*97) % n
				t := ring.live[pick]
				page := uint64(op*131+int(id)) % tenantPages
				off := page * arch.PageSize
				if op%16 == 15 {
					buf, err := t.view.Range(core, off, 8)
					if err != nil {
						fail(err)
						break
					}
					if buf[0] != t.pat {
						stale.Add(1)
					}
				} else {
					b, err := t.view.Get(core, off)
					if err != nil {
						fail(err)
						break
					}
					if b != t.pat {
						stale.Add(1)
					}
				}
				serves.Add(1)
			}
			ring.mu.RUnlock()
		}
	})
	// Drain the warm ring (untimed work is still verified).
	for {
		t := ring.popOldest(1)
		if t == nil {
			break
		}
		for p := 0; p < tenantPages; p++ {
			b, err := t.view.Get(0, uint64(p)*arch.PageSize)
			if err != nil {
				fail(err)
				break
			}
			if b != t.pat {
				stale.Add(1)
			}
		}
		t.s.Destroy(0)
		addRSS(-int64(t.rss))
	}
	elapsed := time.Since(start)
	if ep := firstErr.Load(); ep != nil {
		return TenantFarmResult{}, *ep
	}
	return TenantFarmResult{
		Tenants:       cfg.Tenants,
		Elapsed:       elapsed,
		ServeOps:      serves.Load(),
		StaleReads:    stale.Load(),
		BoundsProbes:  probes.Load(),
		BoundsEscapes: escapes.Load(),
		PeakRSSPages:  uint64(peakRSS.Load()),
	}, nil
}
