package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

type refKey struct {
	asid ASID
	va   arch.Vaddr
}

// refTLB is a flat reference model of the sync-mode machine: one map
// per core.
type refTLB []map[refKey]pt.Translation

// TestQuickSyncMatchesReference: under random insert/flush/shootdown
// traffic, every hit of the sync-mode machine agrees with a trivially
// correct model. The check is one-sided — a real TLB may miss at any
// time (set conflicts, conservative generation invalidation) — but a
// hit whose translation the model does not hold, or a hit on a page
// the model has invalidated, is a staleness bug.
func TestQuickSyncMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cores = 4
		m := NewMachine(cores, ModeSync)
		ref := make(refTLB, cores)
		for i := range ref {
			ref[i] = map[refKey]pt.Translation{}
		}
		check := func(core int, asid ASID, va arch.Vaddr) bool {
			got, ok := m.Lookup(core, asid, va)
			if !ok {
				return true
			}
			want, wok := ref[core][refKey{asid, va}]
			return wok && got == want
		}
		for step := 0; step < 500; step++ {
			core := rng.Intn(cores)
			asid := ASID(1 + rng.Intn(3))
			va := arch.Vaddr(rng.Intn(32)) * arch.PageSize
			switch rng.Intn(5) {
			case 0:
				tr := pt.Translation{PFN: arch.PFN(step), Perm: arch.PermRW, Level: 1}
				m.Insert(core, asid, va, tr)
				ref[core][refKey{asid, va}] = tr
			case 1:
				m.FlushLocal(core, asid, va)
				delete(ref[core], refKey{asid, va})
			case 2:
				m.ShootdownRange(core, asid, va, va+arch.PageSize)
				for c := range ref {
					delete(ref[c], refKey{asid, va})
				}
			case 3:
				hi := va + arch.Vaddr(1+rng.Intn(8))*arch.PageSize
				m.ShootdownRange(core, asid, va, hi)
				for c := range ref {
					for p := va; p < hi; p += arch.PageSize {
						delete(ref[c], refKey{asid, p})
					}
				}
			case 4:
				if !check(core, asid, va) {
					return false
				}
			}
		}
		// Full sweep at the end.
		for c := 0; c < cores; c++ {
			for asid := ASID(1); asid <= 3; asid++ {
				for p := 0; p < 32; p++ {
					if !check(c, asid, arch.Vaddr(p)*arch.PageSize) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLazyNeverResurrects: under early-ack and LATR, a lookup may
// miss "early" (invalidation applied sooner than required) but a page
// invalidated everywhere must never reappear without a fresh insert.
func TestQuickLazyNeverResurrects(t *testing.T) {
	for _, mode := range []Mode{ModeEarlyAck, ModeLATR} {
		mode := mode
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			const cores = 3
			m := NewMachine(cores, mode)
			dead := map[arch.Vaddr]bool{}
			for step := 0; step < 300; step++ {
				va := arch.Vaddr(rng.Intn(16)) * arch.PageSize
				switch rng.Intn(4) {
				case 0:
					if !dead[va] {
						m.Insert(rng.Intn(cores), 1, va, pt.Translation{PFN: 1, Perm: arch.PermRW, Level: 1})
					}
				case 1:
					m.ShootdownRange(rng.Intn(cores), 1, va, va+arch.PageSize)
					dead[va] = true // no one may see it after ticks
				case 2:
					for c := 0; c < cores; c++ {
						m.Tick(c)
					}
					for v := range dead {
						for c := 0; c < cores; c++ {
							if _, ok := m.Lookup(c, 1, v); ok {
								return false
							}
						}
					}
				case 3:
					// Re-inserting revives legitimately.
					if dead[va] && rng.Intn(2) == 0 {
						delete(dead, va)
						m.Insert(rng.Intn(cores), 1, va, pt.Translation{PFN: 2, Perm: arch.PermRW, Level: 1})
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
