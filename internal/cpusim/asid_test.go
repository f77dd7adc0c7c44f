package cpusim

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// TestASIDRecycleRollover pins the allocator's lifecycle end to end:
// the fresh pool hands out slots 1..HWASIDs-1 in order; a freed slot is
// quarantined (not reissued) until the pool runs dry; exhaustion with
// quarantined slots rolls the generation, flushes every core's TLB, and
// only then reissues — so the recycled tag can never hit a dead space's
// translations.
func TestASIDRecycleRollover(t *testing.T) {
	m := New(Config{Cores: 2})
	asids := make([]tlb.ASID, 0, HWASIDs-1)
	for i := 1; i < HWASIDs; i++ {
		a := m.AllocASID()
		if int(a) != i {
			t.Fatalf("fresh alloc %d handed slot %d", i, a)
		}
		asids = append(asids, a)
	}
	st := m.ASIDStats()
	if st.Live != HWASIDs-1 || st.Generation != 1 || st.Rollovers != 0 {
		t.Fatalf("after draining fresh pool: %+v", st)
	}

	// Cache translations under a doomed slot on both cores, then free
	// it. The slot must be quarantined with its stale entries intact —
	// nothing flushes at free time.
	victim := asids[9]
	for core := 0; core < 2; core++ {
		m.TLB.Insert(core, victim, 0x1000, pt.Translation{PFN: 7, Perm: arch.PermRead, Level: 1})
	}
	m.FreeASID(victim)
	if fl := m.TLB.Stats().FullFlushes; fl != 0 {
		t.Fatalf("FreeASID flushed eagerly: %d full flushes", fl)
	}

	// Pool empty + one quarantined slot: the next alloc must roll the
	// generation, flush all cores, and reissue exactly that slot.
	got := m.AllocASID()
	if got != victim {
		t.Fatalf("rollover reissued slot %d, want %d", got, victim)
	}
	st = m.ASIDStats()
	if st.Generation != 2 || st.Rollovers != 1 {
		t.Fatalf("after rollover: %+v", st)
	}
	if fl := m.TLB.Stats().FullFlushes; fl != 1 {
		t.Fatalf("rollover full flushes = %d, want 1", fl)
	}
	for core := 0; core < 2; core++ {
		if _, ok := m.TLB.Lookup(core, got, 0x1000); ok {
			t.Fatalf("core %d: recycled ASID hit the dead space's translation", core)
		}
	}
}

// TestASIDFreePanics: freeing the reserved slot, an out-of-range tag,
// or a slot that is not live is a kernel bug and must panic loudly.
func TestASIDFreePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}
	m := New(Config{})
	a := m.AllocASID()
	m.FreeASID(a)
	mustPanic("double-free", func() { m.FreeASID(a) })
	mustPanic("slot-zero", func() { m.FreeASID(0) })
	mustPanic("out-of-range", func() { m.FreeASID(tlb.ASID(HWASIDs)) })
	mustPanic("never-allocated", func() { m.FreeASID(42) })
}

// TestASIDExhaustionPanics: more live address spaces than hardware
// slots cannot be satisfied by any amount of recycling.
func TestASIDExhaustionPanics(t *testing.T) {
	m := New(Config{})
	for i := 1; i < HWASIDs; i++ {
		m.AllocASID()
	}
	defer func() {
		if recover() == nil {
			t.Error("allocating past HWASIDs live slots did not panic")
		}
	}()
	m.AllocASID()
}

// TestOwnersFollowTheTable: Owners lists what was published on live
// slots, in slot order from its start and wrapping, and FreeASID takes
// a slot's owner out with it.
func TestOwnersFollowTheTable(t *testing.T) {
	m := New(Config{Cores: 1})
	a, b, c := m.AllocASID(), m.AllocASID(), m.AllocASID()
	m.Publish(a, "a")
	m.Publish(c, "c")
	if got := m.Owners(0); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Owners(0) = %v, want [a c]: b was never published", got)
	}
	if got := m.Owners(int(b)); len(got) != 2 || got[0] != "c" || got[1] != "a" {
		t.Fatalf("Owners(%d) = %v, want [c a]", b, got)
	}
	m.FreeASID(a)
	m.FreeASID(b)
	if got := m.Owners(0); len(got) != 1 || got[0] != "c" {
		t.Fatalf("after FreeASID: Owners = %v, want [c]", got)
	}
}
