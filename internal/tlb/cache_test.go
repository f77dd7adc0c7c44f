package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"cortenmm/internal/arch"
)

// TestTLBSetGeometry pins the layout the lookup cost rests on: a slot is
// five words — seq, tag, gen, trw and the cached page — so a 4-way set
// is 160 bytes, and both arrays start on a cache line. A parallel page
// array beside 32-byte slots (sets of exactly two lines) measured the
// same on resident_access as the in-slot word, which is less code. A
// core's counters fill exactly two lines, so cores never share one.
func TestTLBSetGeometry(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 40 {
		t.Errorf("slot is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(coreStats{}); got != 128 {
		t.Errorf("coreStats is %d bytes, want 128", got)
	}
	if setBytes := nWays * unsafe.Sizeof(slot{}); setBytes != 160 {
		t.Errorf("a set is %d bytes, want 160", setBytes)
	}
	m := NewMachine(3, ModeSync)
	for i := range m.cores {
		c := &m.cores[i]
		for name, s := range map[string][]slot{"slots": c.slots, "hugeSlots": c.hugeSlots} {
			if off := uintptr(unsafe.Pointer(&s[0])) % 64; off != 0 {
				t.Errorf("core %d: %s starts %d bytes into a cache line", i, name, off)
			}
		}
	}
}

// TestSlotCachesPage: a 4-KiB fill's page comes back from the lookup, a
// refill of the same tag without one comes back without one, and a huge
// fill never caches one.
func TestSlotCachesPage(t *testing.T) {
	m := NewMachine(1, ModeSync)
	var a [arch.PageSize]byte
	x := tr(7)
	x.Page = &a
	m.Insert(0, 1, 0x1000, x)
	if got, ok := m.Lookup(0, 1, 0x1000); !ok || got.Page != &a || got.PFN != 7 {
		t.Errorf("after a fill with page A: %+v, %v; want PFN 7 with A", got, ok)
	}
	m.Insert(0, 1, 0x1000, tr(8))
	if got, ok := m.Lookup(0, 1, 0x1000); !ok || got.Page != nil || got.PFN != 8 {
		t.Errorf("after a page-less refill: %+v, %v; want PFN 8 with no page", got, ok)
	}
	const huge = arch.Vaddr(1) << 30
	h := trL(512, 2)
	h.Page = &a
	m.Insert(0, 1, huge, h)
	if got, ok := m.Lookup(0, 1, huge+arch.PageSize); !ok || got.Page != nil || got.PFN != 513 {
		t.Errorf("huge hit: %+v, %v; want PFN 513 with no page", got, ok)
	}
}

// nruModel is the reference the replacement policy is checked against:
// not-recently-used over the same sets, with one generation per ASID
// standing for its epoch cell (the streams below bump a cell only by
// whole-ASID flushes, so a lagging generation means a dead entry).
type nruModel struct {
	sets map[uint64]*[nWays]nruWay
	gen  map[ASID]uint64
	ctr  uint32

	hits, misses, evictions, staleDrops uint64
}

type nruWay struct {
	key        refKey
	valid, ref bool
	gen        uint64
}

func (r *nruModel) set(k refKey) *[nWays]nruWay {
	i := setIndex(k.asid, k.va)
	if r.sets[i] == nil {
		r.sets[i] = new([nWays]nruWay)
	}
	return r.sets[i]
}

// access is a lookup followed, on a miss, by a fill.
func (r *nruModel) access(k refKey) bool {
	set := r.set(k)
	for i := range set {
		if w := &set[i]; w.valid && w.key == k {
			if w.gen == r.gen[k.asid] {
				w.ref = true
				r.hits++
				return true
			}
			w.valid = false
			r.staleDrops++
		}
	}
	r.misses++
	victim, score := 0, 0
	for i, w := range set {
		s := 0
		switch {
		case !w.valid:
			s = 3
		case w.gen != r.gen[w.key.asid]:
			s = 2
		case !w.ref:
			s = 1
		}
		if s > score {
			victim, score = i, s
		}
	}
	if score == 0 {
		r.ctr++
		victim = int(r.ctr) % nWays
		for i := range set {
			set[i].ref = false
		}
	}
	if score <= 1 {
		r.evictions++
	}
	set[victim] = nruWay{key: k, valid: true, gen: r.gen[k.asid]}
	return false
}

// checkVictim compares one set before and after a fill against the
// order of preference: an empty way, else a generation-stale one, else
// an unreferenced one — and only when all four are referenced a
// referenced one, whereupon exactly the other three age.
func checkVictim(t *testing.T, before, after [nWays]uint64, stale [nWays]bool) bool {
	victim, changed := -1, 0
	for i := range before {
		if before[i]&^tagRef != after[i]&^tagRef {
			victim, changed = i, changed+1
		}
	}
	if changed != 1 {
		t.Errorf("fill rewrote %d ways: %x -> %x", changed, before, after)
		return false
	}
	class := func(i int) int {
		switch {
		case before[i] == 0:
			return 3
		case stale[i]:
			return 2
		case before[i]&tagRef == 0:
			return 1
		}
		return 0
	}
	best := 0
	for i := range before {
		best = max(best, class(i))
	}
	if class(victim) != best {
		t.Errorf("fill evicted way %d (class %d) of %x with a class-%d way present", victim, class(victim), before, best)
		return false
	}
	for i := range before {
		want := before[i]
		if best == 0 {
			want &^= tagRef
		}
		if i != victim && after[i] != want {
			t.Errorf("way %d beside victim %d: %x -> %x, want %x", i, victim, before[i], after[i], want)
			return false
		}
	}
	return true
}

// TestQuickNRUMatchesReference drives one core with random accesses
// (a lookup, filled on a miss) over more pages than the cache holds, a
// hot subset among them, with precise flushes and whole-ASID flushes in
// between. The machine's hit/miss sequence and its eviction and
// stale-drop counts equal the reference model's, and every fill's
// victim obeys the order of preference.
func TestQuickNRUMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMachine(1, ModeSync)
		c := &m.cores[0]
		ref := &nruModel{sets: map[uint64]*[nWays]nruWay{}, gen: map[ASID]uint64{}}
		snapshot := func(set []slot) (tags [nWays]uint64, stale [nWays]bool) {
			for i := range set {
				tags[i] = set[i].tag.Load()
				stale[i] = tags[i] != 0 && set[i].gen.Load() != c.cell(tagASID(tags[i])).gen.Load()
			}
			return
		}
		for step := 0; step < 40000; step++ {
			k := refKey{ASID(1 + rng.Intn(2)), arch.Vaddr(rng.Intn(6000)) * arch.PageSize}
			if rng.Intn(3) != 0 {
				k.va = arch.Vaddr(rng.Intn(1500)) * arch.PageSize
			}
			switch op := rng.Intn(400); {
			case op == 0:
				m.cores[0].invalidateLocal(Invalidation{ASID: k.asid, All: true})
				ref.gen[k.asid]++
			case op < 8:
				m.FlushLocal(0, k.asid, k.va)
				for i, w := range ref.set(k) {
					if w.valid && w.key == k {
						ref.set(k)[i].valid = false
					}
				}
			default:
				_, hit := m.Lookup(0, k.asid, k.va)
				if hit != ref.access(k) {
					t.Errorf("step %d: machine hit=%v, model disagrees", step, hit)
					return false
				}
				if !hit {
					set := c.set(k.asid, k.va)
					before, stale := snapshot(set)
					m.Insert(0, k.asid, k.va, tr(arch.PFN(step)))
					after, _ := snapshot(set)
					if !checkVictim(t, before, after, stale) {
						return false
					}
				}
			}
		}
		st := m.Stats()
		if st.Hits != ref.hits || st.Lookups != ref.hits+ref.misses || st.Evictions != ref.evictions || st.StaleDrops != ref.staleDrops {
			t.Errorf("machine %d hits / %d lookups / %d evictions / %d stale drops, model %d / %d / %d / %d",
				st.Hits, st.Lookups, st.Evictions, st.StaleDrops, ref.hits, ref.hits+ref.misses, ref.evictions, ref.staleDrops)
			return false
		}
		return ref.evictions > 0 && ref.staleDrops > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestStatsLookupIdentity: every Lookup is counted exactly once, as a
// hit or as a miss, whichever array served it and whether or not it
// dropped a stale entry on the way.
func TestStatsLookupIdentity(t *testing.T) {
	m := NewMachine(2, ModeSync)
	const huge = arch.Vaddr(1) << 30
	var calls, hits uint64
	look := func(core int, asid ASID, va arch.Vaddr) {
		calls++
		if _, ok := m.Lookup(core, asid, va); ok {
			hits++
		}
	}
	look(0, 1, 0x1000) // miss before any huge fill: the huge probe is skipped
	for p := arch.Vaddr(0); p < 64; p++ {
		m.Insert(0, 1, p*arch.PageSize, tr(arch.PFN(p)))
	}
	m.Insert(0, 1, huge, trL(512, 2))
	for p := arch.Vaddr(0); p < 96; p++ {
		look(0, 1, p*arch.PageSize)            // 64 base hits, 32 misses
		look(0, 1, huge+p*5*arch.PageSize)     // huge hits at many offsets
		look(0, 2, p*arch.PageSize)            // another ASID: misses
		look(1, 1, p*arch.PageSize)            // another core: misses
		look(0, 1, huge+1<<21+p*arch.PageSize) // next span: misses
	}
	// A wide range invalidation leaves dead entries behind for lookups to
	// drop; a dropped entry is a miss.
	m.ShootdownRange(1, 1, 0, 1024*arch.PageSize)
	for p := arch.Vaddr(0); p < 64; p++ {
		look(0, 1, p*arch.PageSize)
	}
	look(0, 1, huge) // outside the range: still a hit

	st := m.Stats()
	if st.Lookups != calls {
		t.Errorf("Lookups = %d after %d calls", st.Lookups, calls)
	}
	if st.Hits != hits || hits != 64+96+1 {
		t.Errorf("Hits = %d, calls that hit = %d, want %d", st.Hits, hits, 64+96+1)
	}
	if st.HugeHits != 96+1 {
		t.Errorf("HugeHits = %d, want %d", st.HugeHits, 96+1)
	}
	if st.StaleDrops != 64 {
		t.Errorf("StaleDrops = %d, want 64", st.StaleDrops)
	}
}

// TestWideASIDNeverCached: an ASID that does not fit the tag (the
// unbounded allocator of cpusim's MonotonicASID can hand one out) is
// never cached — a dropped fill is always legal — instead of being
// truncated onto a narrow ASID's entries.
func TestWideASIDNeverCached(t *testing.T) {
	m := NewMachine(1, ModeSync)
	const narrow = ASID(5)
	const wide = narrow | 1<<asidBits
	const huge = arch.Vaddr(1) << 30
	m.Insert(0, wide, 0x1000, tr(1))
	m.Insert(0, wide, huge, trL(512, 2))
	for _, asid := range []ASID{wide, narrow} {
		for _, va := range []arch.Vaddr{0x1000, huge} {
			if x, ok := m.Lookup(0, asid, va); ok {
				t.Errorf("after wide fills: asid %#x hits %#x -> %+v", asid, va, x)
			}
		}
	}
	m.Insert(0, narrow, 0x1000, tr(2))
	m.Insert(0, narrow, huge, trL(1024, 2))
	for _, va := range []arch.Vaddr{0x1000, huge} {
		if x, ok := m.Lookup(0, wide, va); ok {
			t.Errorf("wide asid hits the narrow one's entry at %#x: %+v", va, x)
		}
		if _, ok := m.Lookup(0, narrow, va); !ok {
			t.Errorf("narrow asid misses its own entry at %#x", va)
		}
	}
	m.FlushLocal(0, wide, 0x1000)
	m.FlushLocal(0, wide, huge)
	for _, va := range []arch.Vaddr{0x1000, huge} {
		if _, ok := m.Lookup(0, narrow, va); !ok {
			t.Errorf("flushing the wide asid cleared the narrow one's entry at %#x", va)
		}
	}
	if st := m.Stats(); st.Lookups != 10 || st.Hits != 4 || st.Evictions != 0 {
		t.Errorf("stats %+v, want 10 lookups, 4 hits, no eviction", st)
	}
}
