package mem

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// TestFrameDescSize pins the per-page overhead: a descriptor is two
// cache lines, the first holding what the anonymous page lifecycle
// touches at alloc, map, unmap and free — Ref, the mapping word, the
// hint's owner and the payload pointers.
func TestFrameDescSize(t *testing.T) {
	var d FrameDesc
	if got := unsafe.Sizeof(d); got != 128 {
		t.Errorf("FrameDesc is %d bytes, want 128", got)
	}
	for name, end := range map[string]uintptr{
		"Ref":       unsafe.Offsetof(d.Ref) + unsafe.Sizeof(d.Ref),
		"mapping":   unsafe.Offsetof(d.mapping) + unsafe.Sizeof(d.mapping),
		"anonOwner": unsafe.Offsetof(d.anonOwner) + unsafe.Sizeof(d.anonOwner),
		"spare":     unsafe.Offsetof(d.spare) + unsafe.Sizeof(d.spare),
	} {
		if end > 64 {
			t.Errorf("%s ends at byte %d, outside the first cache line", name, end)
		}
	}
}

// frameRun is one PutRun's worth of frame heads.
type frameRun struct {
	head arch.PFN
	n    int
}

// putScene allocates a mix of frames on m — the same mix on every
// machine built alike, since it depends on seed alone — and returns
// the heads to release grouped into runs of consecutive PFNs, the
// heads that were given a second reference and so survive one release,
// and the core that releases. The mix: a populate-sized batch (longer
// than pcpHigh), singles through the cache, frames of the other node,
// page-table, kernel and named frames, a lone 2-MiB block, small
// blocks, and a shattered 2-MiB block whose last children run into the
// head of the 2-MiB block behind it. Half the data frames are touched.
func putScene(t *testing.T, m *PhysMem, seed int64) (runs []frameRun, survivors []arch.PFN, core int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var heads []arch.PFN
	alloc := func(pfn arch.PFN, err error) arch.PFN {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, pfn)
		return pfn
	}
	// Two 2-MiB blocks back to back, taken first while the zone is whole.
	a := alloc(m.AllocFrames(0, hugeOrder, KindAnon))
	b := alloc(m.AllocFrames(0, hugeOrder, KindAnon))
	if b != a+1<<hugeOrder {
		t.Fatalf("2-MiB blocks at %#x and %#x are not adjacent", a, b)
	}
	alloc(m.AllocFrames(0, hugeOrder, KindAnon))
	for i := 0; i < 3; i++ {
		alloc(m.AllocFrames(0, 1+rng.Intn(4), KindAnon))
	}
	batch := make([]arch.PFN, 200+rng.Intn(400))
	if n := m.AllocFrameBatch(0, KindAnon, batch); n != len(batch) {
		t.Fatalf("batch of %d gave %d", len(batch), n)
	}
	heads = append(heads, batch...)
	for i := rng.Intn(40); i >= 0; i-- {
		alloc(m.AllocFrame(0, KindAnon))
		alloc(m.AllocFrameOn(0, 1, KindAnon))
	}
	for i := rng.Intn(5); i >= 0; i-- {
		m.Desc(alloc(m.AllocFrame(0, KindPT))).PT = "page-table state"
		alloc(m.AllocFrame(0, KindKernel))
		m.Desc(alloc(m.AllocFrame(0, KindFile))).RMap = RMapRef{File: &File{}, Index: uint64(i)}
	}
	// Shatter the first block the way a split huge mapping leaves it; the
	// children's payloads alias the head's buffer.
	m.GetN(a, 1<<hugeOrder-1)
	m.Desc(a).MapN(1 << hugeOrder)
	if !m.ShatterBlock(a, &AnonOwner{}, 1<<21) {
		t.Fatal("ShatterBlock refused")
	}
	for i := arch.PFN(0); i < 1<<hugeOrder; i++ {
		m.Desc(a + i).Unmap()
		if i > 0 {
			heads = append(heads, a+i)
		}
	}
	for _, pfn := range heads {
		d := m.Desc(pfn)
		if d.Kind != KindPT && rng.Intn(2) == 0 {
			m.Data(pfn)[7] = 0xA5
			d.MapExclusive(&AnonOwner{}, 0x1000)
			d.Unmap()
		}
		if rng.Intn(8) == 0 {
			m.Get(pfn)
			survivors = append(survivors, pfn)
		}
	}
	slices.Sort(heads)
	for i := 0; i < len(heads); {
		j := i + 1
		for j < len(heads) && heads[j] == heads[j-1]+1 && rng.Intn(300) != 0 {
			j++
		}
		runs = append(runs, frameRun{heads[i], j - i})
		i = j
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs, survivors, rng.Intn(2)
}

// physState is everything about a quiescent machine that must not
// depend on how its frames were released.
type physState struct {
	kinds   [numKinds]int64
	free    uint64
	byOrder [][MaxOrder + 1]int64
	refs    []int64
	live    []Kind
	data    []bool
}

// settle audits m, checks the cache bound, then drains the caches (which
// frames a cache keeps is the one thing the release order may decide) and
// records the rest.
func settle(t *testing.T, m *PhysMem) physState {
	t.Helper()
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	for i := range m.pcp {
		if n := m.pcp[i].len(); n > pcpHigh {
			t.Fatalf("pcp cache %d holds %d frames, above pcpHigh", i, n)
		}
	}
	m.DrainPCP()
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	s := physState{free: m.FreeFrames()}
	for k := range s.kinds {
		s.kinds[k] = m.KindFrames(Kind(k))
	}
	for z := range m.zones {
		s.byOrder = append(s.byOrder, m.FreeByOrder(z))
	}
	for pfn := range m.frames {
		d := &m.frames[pfn]
		_, hint := d.AnonRMap()
		if d.Ref.Load() == 0 && (d.PT != nil || d.RMap != (RMapRef{}) || d.words != nil || d.MapCount() != 0 || hint != 0 || d.aliased) {
			t.Fatalf("free frame %#x keeps state of its last life: %+v", pfn, d)
		}
		s.refs = append(s.refs, d.Ref.Load())
		s.live = append(s.live, d.Kind)
		s.data = append(s.data, d.data.Load() != nil)
	}
	return s
}

func (s physState) equal(o physState) bool {
	return s.kinds == o.kinds && s.free == o.free && slices.Equal(s.byOrder, o.byOrder) &&
		slices.Equal(s.refs, o.refs) && slices.Equal(s.live, o.live) && slices.Equal(s.data, o.data)
}

// TestPutRunMatchesPuts: releasing runs through PutRun, or all of them
// through one PutList, leaves a machine in the state N single Puts do —
// same audit, kind counters, free count, free blocks per order, same
// surviving frames — over random mixes of everything a run can cross.
// Afterwards a frame the cache kept is recycled: its next first touch
// reads zeroes out of the buffer its last life dirtied.
func TestPutRunMatchesPuts(t *testing.T) {
	recycled := 0
	for seed := int64(1); seed <= 24; seed++ {
		release := []func(m *PhysMem, core int, runs []frameRun){
			func(m *PhysMem, core int, runs []frameRun) {
				for _, r := range runs {
					for i := 0; i < r.n; i++ {
						m.Put(core, r.head+arch.PFN(i))
					}
				}
			},
			func(m *PhysMem, core int, runs []frameRun) {
				for _, r := range runs {
					m.PutRun(core, r.head, r.n)
				}
			},
			func(m *PhysMem, core int, runs []frameRun) {
				var list []arch.PFN
				for _, r := range runs {
					for i := 0; i < r.n; i++ {
						list = append(list, r.head+arch.PFN(i))
					}
				}
				m.PutList(core, list)
			},
		}
		var want physState
		for mode, rel := range release {
			m := NewPhysMemNUMA(1<<13, 2, 2, nil)
			boot := m.FreeFrames()
			runs, survivors, core := putScene(t, m, seed)
			rel(m, core, runs)
			for _, pfn := range survivors {
				if m.Desc(pfn).Ref.Load() != 1 {
					t.Fatalf("seed %d mode %d: shared frame %#x did not survive its run", seed, mode, pfn)
				}
			}
			got := settle(t, m)
			if mode == 0 {
				want = got
			} else if !got.equal(want) {
				t.Fatalf("seed %d: mode %d left kinds %v free %d blocks %v, single Puts left kinds %v free %d blocks %v",
					seed, mode, got.kinds, got.free, got.byOrder, want.kinds, want.free, want.byOrder)
			}
			var last []frameRun
			for _, pfn := range survivors {
				last = append(last, frameRun{pfn, 1})
			}
			rel(m, core, last)
			if rep := m.Audit(); !rep.Ok() {
				t.Fatal(rep.String())
			}
			if m.FreeFrames() != boot {
				t.Fatalf("seed %d mode %d: %d frames free, booted with %d", seed, mode, m.FreeFrames(), boot)
			}
			if cached := m.pcp[core].snapshot(); len(cached) > 0 {
				pfn := cached[len(cached)-1]
				if kept := m.Desc(pfn).spare.Load(); kept != nil {
					if got, err := m.AllocFrame(core, KindAnon); err != nil || got != pfn {
						t.Fatalf("AllocFrame = %#x, %v; want the cache's newest frame %#x", got, err, pfn)
					}
					buf := m.Data(pfn)
					if &buf[0] != &(*kept)[0] || buf[7] != 0 {
						t.Fatalf("frame %#x: first touch did not clear and reuse the kept payload", pfn)
					}
					m.Put(core, pfn)
					recycled++
				}
			}
		}
	}
	if recycled == 0 {
		t.Error("no release left a payload in the cache to recycle")
	}
}

// freeSet lists a buddy's free blocks in address order (n is the order).
func freeSet(b *buddy) (out []frameRun) {
	b.forEachFree(func(pfn arch.PFN, order int) { out = append(out, frameRun{pfn, order}) })
	slices.SortFunc(out, func(x, y frameRun) int { return int(x.head) - int(y.head) })
	return out
}

// highestFit is allocHigh's contract, by scanning the whole zone: the
// top 2^order frames of the highest free block that has them.
func highestFit(b *buddy, order int) (arch.PFN, bool) {
	for pfn := b.n - 1; pfn >= 0; pfn-- {
		if b.isFree[pfn] && int(b.order[pfn]) >= order {
			return arch.PFN(pfn+1<<b.order[pfn]-1<<order) + arch.PFN(b.base), true
		}
	}
	return 0, false
}

// TestBuddyRunsMatchFrames drives two buddies with the same random
// traffic: one frees runs block-wise and peels whole blocks into its
// batches, the other frees and splits frame by frame. They hand out the
// same frames and hold the same free blocks after every step, and every
// top-down allocation takes the frame the full scan finds.
func TestBuddyRunsMatchFrames(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var runs, frames buddy
		runs.init(512, 5000, false)
		frames.init(512, 5000, false)
		var held []arch.PFN
		type block struct {
			pfn   arch.PFN
			order int
		}
		var blocks []block
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(5); {
			case op == 0: // a batch of order-0 frames
				got := make([]arch.PFN, 1+rng.Intn(700))
				ref := make([]arch.PFN, len(got))
				n := runs.allocBatch(got)
				frames.mu.Lock()
				k := 0
				for ; k < len(ref); k++ {
					pfn, ok := frames.allocLocked(0)
					if !ok {
						break
					}
					ref[k] = pfn + arch.PFN(frames.base)
				}
				frames.publish()
				frames.mu.Unlock()
				if n != k || !slices.Equal(got[:n], ref[:k]) {
					t.Fatalf("seed %d step %d: allocBatch gave %d frames %v, frame by frame %d %v", seed, step, n, got[:min(n, 8)], k, ref[:min(k, 8)])
				}
				held = append(held, got[:n]...)
			case op == 1 && len(held) > 0: // free a random share, mostly as runs
				rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				cut := rng.Intn(len(held) + 1)
				out := held[cut:]
				held = held[:cut]
				if rng.Intn(4) != 0 {
					slices.Sort(out)
				}
				runs.freeBatch(out)
				frames.mu.Lock()
				for _, pfn := range out {
					frames.freeLocked(int32(pfn)-frames.base, 0)
				}
				frames.publish()
				frames.mu.Unlock()
			case op == 2: // a block, from the bottom or the top of the zone
				order := rng.Intn(8)
				var pfn, ref arch.PFN
				var ok, refOK bool
				if rng.Intn(2) == 0 {
					want, wantOK := highestFit(&runs, order)
					pfn, ok = runs.allocHigh(order)
					ref, refOK = frames.allocHigh(order)
					if ok != wantOK || ok && pfn != want {
						t.Fatalf("seed %d step %d: allocHigh(%d) = %#x, %v; the full scan finds %#x, %v", seed, step, order, pfn, ok, want, wantOK)
					}
				} else {
					pfn, ok = runs.alloc(order)
					ref, refOK = frames.alloc(order)
				}
				if ok != refOK || ok && pfn != ref {
					t.Fatalf("seed %d step %d: order-%d block %#x, %v vs %#x, %v", seed, step, order, pfn, ok, ref, refOK)
				}
				if ok {
					blocks = append(blocks, block{pfn, order})
				}
			case op == 3 && len(blocks) > 0:
				i := rng.Intn(len(blocks))
				runs.free(blocks[i].pfn, blocks[i].order)
				frames.free(blocks[i].pfn, blocks[i].order)
				blocks = slices.Delete(blocks, i, i+1)
			default:
				continue
			}
			if a, b := freeSet(&runs), freeSet(&frames); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: free blocks differ:\nruns   %v\nframes %v", seed, step, a, b)
			}
			if runs.freeOrd != frames.freeOrd || runs.free_ != frames.free_ {
				t.Fatalf("seed %d step %d: counters differ: %v/%d vs %v/%d", seed, step, runs.freeOrd, runs.free_, frames.freeOrd, frames.free_)
			}
			// What the top-down scans go by: top at or above every free head,
			// and the free heads of each 64 frames counted.
			for _, b := range []*buddy{&runs, &frames} {
				count := make([]uint8, len(b.heads64))
				for _, blk := range freeSet(b) {
					head := int32(blk.head) - b.base
					if count[head>>6]++; head > b.top {
						t.Fatalf("seed %d step %d: top %d below the free head %d", seed, step, b.top, head)
					}
				}
				if !slices.Equal(count, b.heads64) {
					t.Fatalf("seed %d step %d: free heads per 64 frames %v, counted %v", seed, step, b.heads64, count)
				}
			}
		}
	}
}

// TestPutRunRacesScannerAndDrain: while one core populates and releases
// in runs, a second goroutine plays the lock-free compaction scanner —
// TryGet, read the words the pin makes stable, Put — and a third keeps
// draining the caches. Run under -race. Every frame is back afterwards.
func TestPutRunRacesScannerAndDrain(t *testing.T) {
	m := NewPhysMemNUMA(1<<12, 2, 2, nil)
	boot := m.FreeFrames()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // scanner
		defer wg.Done()
		for !stop.Load() {
			for pfn := arch.PFN(1); pfn < arch.PFN(m.NFrames()); pfn++ {
				d := m.Desc(pfn)
				if d.Tail() || !m.TryGet(pfn) {
					continue
				}
				if d.Kind == KindFree || d.Order() > hugeOrder {
					t.Errorf("pinned frame %#x reads kind %s order %d", pfn, d.Kind, d.Order())
				}
				m.Put(1, pfn)
			}
		}
	}()
	go func() { // slow-path drain
		defer wg.Done()
		for !stop.Load() {
			m.DrainPCP()
		}
	}()
	frames := make([]arch.PFN, 700)
	for round := 0; round < 300; round++ {
		n := m.AllocFrameBatch(0, KindAnon, frames)
		huge, err := m.AllocFrames(0, 3, KindAnon)
		for i := 0; i < n; i += 16 {
			m.Data(frames[i])[0] = 1
		}
		for i := 0; i < n; {
			j := i + 1
			for j < n && frames[j] == frames[j-1]+1 {
				j++
			}
			m.PutRun(0, frames[i], j-i)
			i = j
		}
		if err == nil {
			m.PutRun(0, huge, 1)
		}
	}
	stop.Store(true)
	wg.Wait()
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	if got := m.FreeFrames(); got != boot {
		t.Fatalf("%d frames free, booted with %d", got, boot)
	}
}

// TestAllocFrameBatchPartial: a batch cut short — by exhaustion in the
// middle, or refused outright by fault injection — initialises exactly
// the frames it returns and counts exactly those.
func TestAllocFrameBatchPartial(t *testing.T) {
	defer fault.DisarmAll()
	m := NewPhysMem(300, 1)
	boot := m.FreeFrames()
	out := make([]arch.PFN, 512)
	fault.MemAllocBatch.Arm(fault.Config{})
	if n := m.AllocFrameBatch(0, KindAnon, out); n != 0 || m.KindFrames(KindAnon) != 0 {
		t.Fatalf("refused batch gave %d frames, counter %d", n, m.KindFrames(KindAnon))
	}
	fault.MemAllocBatch.Disarm()
	n := m.AllocFrameBatch(0, KindAnon, out)
	if uint64(n) != boot || m.KindFrames(KindAnon) != int64(n) || m.FreeFrames() != 0 {
		t.Fatalf("batch gave %d of %d free frames, counter %d, %d still free", n, boot, m.KindFrames(KindAnon), m.FreeFrames())
	}
	for _, pfn := range out[:n] {
		if d := m.Desc(pfn); d.Ref.Load() != 1 || d.Kind != KindAnon || d.Order() != 0 {
			t.Fatalf("frame %#x: ref %d kind %s order %d", pfn, d.Ref.Load(), d.Kind, d.Order())
		}
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	m.PutList(0, out[:n])
	if rep := m.Audit(); !rep.Ok() || m.FreeFrames() != boot {
		t.Fatalf("after release: %d free of %d; %s", m.FreeFrames(), boot, rep.String())
	}
}

// TestAnonBatchMatchesBatchThenMap: on twin machines driven alike,
// AllocAnonBatch hands out the frames AllocFrameBatch does and leaves each
// descriptor as AllocFrameBatch followed by MapExclusive(owner, va+i
// pages) — or by Map, with no owner — would: the same Ref, kind, mapping
// word and owner, over frames that just ended a hinted life under another
// owner, and for batches cut short by exhaustion.
func TestAnonBatchMatchesBatchThenMap(t *testing.T) {
	owners := []*AnonOwner{{Space: "a"}, {Space: "b"}, nil}
	rng := rand.New(rand.NewSource(1))
	ref, batch := NewPhysMemNUMA(1500, 2, 2, nil), NewPhysMemNUMA(1500, 2, 2, nil)
	var held []arch.PFN
	short := 0
	for round := 0; round < 60; round++ {
		core, owner := rng.Intn(2), owners[rng.Intn(len(owners))]
		va := uint64(1+rng.Intn(1<<20)) << arch.PageShift
		want := make([]arch.PFN, 1+rng.Intn(900))
		got := make([]arch.PFN, len(want))
		n := ref.AllocFrameBatch(core, KindAnon, want)
		for i, pfn := range want[:n] {
			if owner != nil {
				ref.Desc(pfn).MapExclusive(owner, va+uint64(i)*arch.PageSize)
			} else {
				ref.Desc(pfn).Map()
			}
		}
		if k := batch.AllocAnonBatch(core, owner, va, got); k != n || !slices.Equal(got[:k], want[:n]) {
			t.Fatalf("round %d: AllocAnonBatch gave %d frames %v, AllocFrameBatch %d %v", round, k, got[:min(k, 8)], n, want[:min(n, 8)])
		}
		if n < len(want) {
			short++
		}
		for _, pfn := range want[:n] {
			r, b := ref.Desc(pfn), batch.Desc(pfn)
			if r.Ref.Load() != b.Ref.Load() || r.Kind != b.Kind || r.mapping.Load() != b.mapping.Load() || r.anonOwner.Load() != b.anonOwner.Load() {
				t.Fatalf("round %d frame %#x: ref %d/%d, kind %s/%s, mapping %#x/%#x, owner %v/%v", round, pfn,
					r.Ref.Load(), b.Ref.Load(), r.Kind, b.Kind, r.mapping.Load(), b.mapping.Load(), r.anonOwner.Load(), b.anonOwner.Load())
			}
		}
		held = append(held, want[:n]...)
		rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		cut := rng.Intn(len(held) + 1)
		for _, m := range []*PhysMem{ref, batch} {
			for _, pfn := range held[cut:] {
				m.Desc(pfn).Unmap()
			}
			m.PutList(core, held[cut:])
			if rep := m.Audit(); !rep.Ok() {
				t.Fatalf("round %d: %s", round, rep.String())
			}
		}
		held = held[:cut]
	}
	if short == 0 {
		t.Error("no batch was cut short by exhaustion")
	}
}

// TestBuddyPublishMatchesLocked: publish stores only the mirrors that
// changed, so after any mix of single frames, blocks from either end of
// the zone, batches, runs, list frees and drains on a two-node machine,
// every published counter equals its locked twin.
func TestBuddyPublishMatchesLocked(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewPhysMemNUMA(1<<12, 2, 2, nil)
		var frames, blocks []arch.PFN
		for step := 0; step < 400; step++ {
			core := rng.Intn(2)
			switch rng.Intn(6) {
			case 0: // a frame; page-table frames come from the top
				kind := []Kind{KindAnon, KindPT}[rng.Intn(2)]
				if pfn, err := m.AllocFrame(core, kind); err == nil {
					frames = append(frames, pfn)
				}
			case 1:
				out := make([]arch.PFN, 1+rng.Intn(600))
				frames = append(frames, out[:m.AllocFrameBatch(core, KindAnon, out)]...)
			case 2:
				if pfn, err := m.AllocFrames(core, 1+rng.Intn(hugeOrder), KindAnon); err == nil {
					blocks = append(blocks, pfn)
				}
			case 3: // a random share, sorted into runs or not
				rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
				cut := rng.Intn(len(frames) + 1)
				if rng.Intn(2) == 0 {
					slices.Sort(frames[cut:])
				}
				m.PutList(core, frames[cut:])
				frames = frames[:cut]
			case 4:
				if len(blocks) > 0 {
					i := rng.Intn(len(blocks))
					m.Put(core, blocks[i])
					blocks = slices.Delete(blocks, i, i+1)
				}
			case 5:
				m.DrainPCP()
			}
			for z := range m.zones {
				b := &m.zones[z].buddy
				b.mu.Lock()
				for o := range b.freeOrd {
					if b.nfreeOrd[o].Load() != b.freeOrd[o] {
						t.Fatalf("seed %d step %d zone %d: %d free order-%d blocks published, %d counted", seed, step, z, b.nfreeOrd[o].Load(), o, b.freeOrd[o])
					}
				}
				if b.nfree.Load() != b.free_ {
					t.Fatalf("seed %d step %d zone %d: %d free frames published, %d counted", seed, step, z, b.nfree.Load(), b.free_)
				}
				b.mu.Unlock()
			}
		}
	}
}
