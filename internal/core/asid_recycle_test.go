package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// churnUntilRecycled creates spaces on m until the allocator reissues
// slot want, returning the space that got it plus the keep-alive extras
// (the caller destroys both). The recipe is deterministic: creates
// drain the fresh pool, then the first rollover recirculates the
// quarantined slot.
func churnUntilRecycled(t *testing.T, m *cpusim.Machine, p Protocol, want tlb.ASID) (*AddrSpace, []*AddrSpace) {
	t.Helper()
	var extras []*AddrSpace
	for i := 0; i <= cpusim.HWASIDs; i++ {
		s, err := New(Options{Machine: m, Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		if s.ASID() == want {
			return s, extras
		}
		extras = append(extras, s)
	}
	t.Fatalf("slot %d never recycled", want)
	return nil, nil
}

// TestASIDRecycleNoStaleHits is the tentpole safety property: a space
// caches translations — 4-KiB and a 2-MiB huge span — on every core,
// is destroyed (which, with recycling on, issues no shootdown at all),
// and its ASID is recycled to a new space. The recycled tag must miss
// on every core for every cached address: the generation rollover's
// flush-all is the only thing standing between the new space and the
// dead one's translations.
func TestASIDRecycleNoStaleHits(t *testing.T) {
	for _, p := range protocols {
		for _, mode := range []tlb.Mode{tlb.ModeSync, tlb.ModeLATR} {
			t.Run(fmt.Sprintf("%s/%s", p, mode), func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 14, TLBMode: mode, TickEvery: 8})
				a, err := New(Options{Machine: m, Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				// The first Mmap lands span-aligned at UserLo: a real
				// 2-MiB leaf, cached in the huge-entry arrays.
				span := uint64(arch.SpanBytes(2))
				hva, err := a.Mmap(0, span, arch.PermRW, mm.FlagHuge2M)
				if err != nil {
					t.Fatal(err)
				}
				const pages = 8
				va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				for core := 0; core < 4; core++ {
					if err := a.Store(core, hva+5*arch.PageSize, byte(40+core)); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < pages; i++ {
						if err := a.Store(core, va+arch.Vaddr(i*arch.PageSize), byte(i+1)); err != nil {
							t.Fatal(err)
						}
					}
				}
				asid := a.ASID()
				for core := 0; core < 4; core++ {
					if _, ok := m.TLB.Lookup(core, asid, va); !ok {
						t.Fatalf("core %d did not cache the 4K translation", core)
					}
					if _, ok := m.TLB.Lookup(core, asid, hva+7*arch.PageSize); !ok {
						t.Fatalf("core %d did not cache the huge span", core)
					}
				}

				a.Destroy(0)
				reborn, extras := churnUntilRecycled(t, m, p, asid)
				if m.ASIDStats().Rollovers == 0 {
					t.Fatal("slot reissued without a generation rollover")
				}

				// Zero stale hits: every page, every core, including
				// the huge-entry slots.
				for core := 0; core < 4; core++ {
					for i := 0; i < pages; i++ {
						if _, ok := m.TLB.Lookup(core, asid, va+arch.Vaddr(i*arch.PageSize)); ok {
							t.Errorf("core %d: stale 4K hit at page %d under recycled ASID", core, i)
						}
					}
					for _, off := range []uint64{0, 5 * arch.PageSize, span - arch.PageSize} {
						if _, ok := m.TLB.Lookup(core, asid, hva+arch.Vaddr(off)); ok {
							t.Errorf("core %d: stale huge hit at +%#x under recycled ASID", core, off)
						}
					}
				}
				// The reborn space sees only its own memory: the dead
				// space's addresses fault, fresh mappings round-trip.
				if err := reborn.Touch(3, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
					t.Errorf("dead space's VA accessible in recycled space: %v", err)
				}
				nva, err := reborn.Mmap(1, arch.PageSize, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := reborn.Store(1, nva, 99); err != nil {
					t.Fatal(err)
				}
				for core := 0; core < 4; core++ {
					if b, err := reborn.Load(core, nva); err != nil || b != 99 {
						t.Fatalf("core %d: recycled space reads %d, %v", core, b, err)
					}
				}

				reborn.Destroy(0)
				for _, s := range extras {
					s.Destroy(0)
				}
				m.Quiesce()
				if rep := m.Phys.Audit(); !rep.Ok() {
					t.Fatalf("%s", rep.String())
				}
			})
		}
	}
}

// TestASIDRolloverUnderConcurrentLookup pins the rollover's flush
// ordering under fire: three cores hammer reads through a long-lived
// space while a fourth churns create/destroy hard enough to force
// several generation rollovers. Every read must return the space's own
// bytes — a reordered flush (slot reissued before the flush-all
// lands) would surface as a wrong byte via a stale translation.
func TestASIDRolloverUnderConcurrentLookup(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 14, TLBMode: tlb.ModeLATR, TickEvery: 8})
	long, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
	va, err := long.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := long.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i*3+7)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var bad atomic.Uint64
	m.Run(4, func(core int) {
		if core == 0 {
			// Churner: ~3 generations' worth of short-lived spaces.
			for r := 0; r < 3*cpusim.HWASIDs; r++ {
				s, err := New(Options{Machine: m, Protocol: ProtocolAdv})
				if err != nil {
					bad.Add(1)
					break
				}
				bva, err := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
				if err == nil {
					err = s.Store(0, bva, 1)
				}
				if err != nil {
					bad.Add(1)
				}
				s.Destroy(0)
			}
			stop.Store(true)
			return
		}
		for !stop.Load() {
			for i := 0; i < pages; i++ {
				b, err := long.Load(core, va+arch.Vaddr(i*arch.PageSize))
				if err != nil || b != byte(i*3+7) {
					t.Errorf("core %d page %d: read %d, %v", core, i, b, err)
					bad.Add(1)
					return
				}
			}
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d failures under rollover churn", bad.Load())
	}
	if ro := m.ASIDStats().Rollovers; ro < 2 {
		t.Fatalf("churn forced only %d rollovers; test needs >= 2", ro)
	}
	long.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestASIDAliasingMeasured quantifies what the recycling allocator is
// for. A long-lived victim keeps 256 pages hot on two cores while
// short-lived spaces churn past. Teardown issues no flush at all and
// the scenario issues no other invalidation, so every stale drop
// (Stats.StaleDrops) is a victim fill killed by a generation rollover;
// below the rollover threshold there are none. The bound is absolute:
// the unbounded monotonic allocator this one replaced (EXPERIMENTS.md
// keeps its rows) measured 65 536 kills on the same 8k churn — every
// teardown's flush-all that aliased the victim's cell — and recycling
// (24 322 over 32 rollovers) has to stay under half of that.
func TestASIDAliasingMeasured(t *testing.T) {
	churn := func(n int) (kills uint64, rollovers uint64) {
		m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
		victim, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		const pages = 256
		va, err := victim.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		reread := func() {
			for core := 0; core < 2; core++ {
				for i := 0; i < pages; i++ {
					if _, err := victim.Load(core, va+arch.Vaddr(i*arch.PageSize)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < pages; i++ {
			if err := victim.Store(0, va+arch.Vaddr(i*arch.PageSize), 1); err != nil {
				t.Fatal(err)
			}
		}
		reread()
		for i := 0; i < n; i++ {
			s, err := New(Options{Machine: m, Protocol: ProtocolAdv})
			if err != nil {
				t.Fatal(err)
			}
			bva, err := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Store(0, bva, 1); err != nil {
				t.Fatal(err)
			}
			s.Destroy(0)
			if i%32 == 31 {
				reread() // re-fill whatever the churn killed
			}
		}
		kills = m.TLB.Stats().StaleDrops
		rollovers = m.ASIDStats().Rollovers
		victim.Destroy(0)
		m.Quiesce()
		return kills, rollovers
	}

	recKills, recRoll := churn(8192)
	if recRoll == 0 {
		t.Fatal("8k recycled churn never rolled the generation")
	}
	const monoKills = 65536
	if recKills >= monoKills/2 {
		t.Errorf("recycling did not bound aliasing: %d stale drops vs %d kills recorded for the monotonic allocator", recKills, monoKills)
	}
	// Below the rollover threshold recycling never flushes, so there is
	// no mechanism left that can kill the victim's fills.
	smallKills, smallRoll := churn(64)
	if smallRoll != 0 || smallKills != 0 {
		t.Errorf("small recycled churn: %d rollovers, %d stale drops; want 0, 0", smallRoll, smallKills)
	}
}

// TestDestroyUnregistersReclaim is the destroyed-space reclaim leak
// regression: Destroy must take a space out of the machine's ASID table,
// the daemon's one list of spaces, so later sweeps neither walk the
// torn-down tree nor keep the space alive. The surviving space must
// still be sweepable.
func TestDestroyUnregistersReclaim(t *testing.T) {
	// New puts every space in the ASID table exactly once, so one
	// registration is the only case left to write.
	t.Run("registered=1", func(t *testing.T) {
		m := cpusim.New(cpusim.Config{Cores: 2, Frames: 512})
		a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		d := AttachReclaim(m, ReclaimConfig{})

		const chunk = 32 * arch.PageSize
		if _, err := a.Mmap(0, chunk, arch.PermRW, mm.FlagPopulate); err != nil {
			t.Fatal(err)
		}
		vb, err := b.Mmap(0, chunk, arch.PermRW, mm.FlagPopulate)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := b.Store(0, vb+arch.Vaddr(i*arch.PageSize), byte(i+1)); err != nil {
				t.Fatal(err)
			}
		}

		a.Destroy(0)
		if got := m.ASIDStats().Live; got != 1 {
			t.Errorf("after Destroy: %d spaces live, want 1", got)
		}
		// Forcing a sweep after the destroy must not touch the dead tree —
		// and must still find the survivor's pages.
		if n := d.DirectReclaim(0, 16); n == 0 {
			t.Error("post-destroy sweep reclaimed nothing from the surviving space")
		}
		for i := 0; i < 32; i++ {
			bb, err := b.Load(0, vb+arch.Vaddr(i*arch.PageSize))
			if err != nil || bb != byte(i+1) {
				t.Fatalf("survivor page %d = %d, %v after sweep", i, bb, err)
			}
		}
		// Destroy is idempotent, including its ASID free.
		a.Destroy(1)
		b.Destroy(0)
		if got := m.ASIDStats().Live; got != 0 {
			t.Errorf("after both destroys: %d spaces live, want 0", got)
		}
		checkClean(t, m)
	})
}

// TestDestroyUnregisterConcurrent exercises Destroy leaving the ASID table under
// the race detector: half the live spaces are torn down from two
// cores in parallel, then every core drives direct-reclaim rounds
// against the survivors.
func TestDestroyUnregisterConcurrent(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 11})
	d := AttachReclaim(m, ReclaimConfig{})
	const n = 8
	spaces := make([]*AddrSpace, n)
	for i := range spaces {
		s, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mmap(0, 16*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
			t.Fatal(err)
		}
		spaces[i] = s
	}
	// Parallel teardown of the even-indexed half.
	m.Run(2, func(core int) {
		for i := core * 2; i < n; i += 4 {
			spaces[i].Destroy(core)
		}
	})
	if got := m.ASIDStats().Live; got != n/2 {
		t.Fatalf("%d spaces live after parallel destroys, want %d", got, n/2)
	}
	// Every core sweeps; only survivors may be walked.
	m.Run(4, func(core int) {
		for r := 0; r < 20; r++ {
			d.DirectReclaim(core, 4)
		}
	})
	for i := 1; i < n; i += 2 {
		spaces[i].Destroy(0)
	}
	if got := m.ASIDStats().Live; got != 0 {
		t.Fatalf("%d spaces live at exit, want 0", got)
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}
