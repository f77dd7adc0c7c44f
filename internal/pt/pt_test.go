package pt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

func newTestTree(t *testing.T) *Tree {
	t.Helper()
	phys := mem.NewPhysMem(1<<14, 4)
	tree, err := NewTree(phys, arch.X8664{}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// mapVA hand-builds a translation for va by allocating intermediate PT
// pages, exercising the mechanical layer directly.
func mapVA(t *testing.T, tree *Tree, va arch.Vaddr, dataPFN arch.PFN) {
	t.Helper()
	cur := tree.Root
	for level := arch.Levels; level > 1; level-- {
		idx := arch.IndexAt(va, level)
		pte := tree.LoadPTE(cur, idx)
		if tree.ISA.IsPresent(pte) {
			cur = tree.ISA.PFNOf(pte)
			continue
		}
		child, err := tree.AllocPTPage(0, level-1)
		if err != nil {
			t.Fatal(err)
		}
		tree.SetPTE(cur, idx, tree.ISA.EncodeTable(child))
		cur = child
	}
	tree.SetPTE(cur, arch.IndexAt(va, 1), tree.ISA.EncodeLeaf(dataPFN, arch.PermRW|arch.PermUser, 1))
}

func TestWalkMissAndHit(t *testing.T) {
	tree := newTestTree(t)
	va := arch.Vaddr(0x7f00_0000_1000)
	if _, _, ok := tree.Walk(va); ok {
		t.Fatal("walk hit in empty tree")
	}
	data, _ := tree.Phys.AllocFrame(0, mem.KindAnon)
	mapVA(t, tree, va, data)
	pte, level, ok := tree.Walk(va)
	if !ok || level != 1 {
		t.Fatalf("walk: ok=%v level=%d", ok, level)
	}
	if tree.ISA.PFNOf(pte) != data {
		t.Fatalf("walk pfn = %#x, want %#x", tree.ISA.PFNOf(pte), data)
	}
	// Neighbouring address in the same leaf page but different entry: miss.
	if _, _, ok := tree.Walk(va + arch.PageSize); ok {
		t.Fatal("walk hit unmapped neighbour")
	}
	if err := tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestWalkAccessPermsAndBits(t *testing.T) {
	tree := newTestTree(t)
	va := arch.Vaddr(0x4000_0000)
	data, _ := tree.Phys.AllocFrame(0, mem.KindAnon)
	mapVA(t, tree, va, data)

	tr, ok := tree.WalkAccess(va, AccessRead)
	if !ok || tr.PFN != data || tr.Level != 1 {
		t.Fatalf("read access: %+v ok=%v", tr, ok)
	}
	pte, _, _ := tree.Walk(va)
	if !tree.ISA.Accessed(pte) {
		t.Error("A bit not set by read")
	}
	if tree.ISA.Dirty(pte) {
		t.Error("D bit set by read")
	}
	if _, ok := tree.WalkAccess(va, AccessWrite); !ok {
		t.Fatal("write access to rw page faulted")
	}
	pte, _, _ = tree.Walk(va)
	if !tree.ISA.Dirty(pte) {
		t.Error("D bit not set by write")
	}
	if _, ok := tree.WalkAccess(va, AccessExec); ok {
		t.Error("exec on non-exec page did not fault")
	}
	if _, ok := tree.WalkAccess(va+arch.PageSize, AccessRead); ok {
		t.Error("access to unmapped page did not fault")
	}
}

func TestWalkAccessHugeOffset(t *testing.T) {
	tree := newTestTree(t)
	va := arch.Vaddr(2 << 20) // 2 MiB aligned
	head, err := tree.Phys.AllocFrames(0, 9, mem.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	// Install a 2 MiB leaf at level 2.
	cur := tree.Root
	for level := arch.Levels; level > 2; level-- {
		idx := arch.IndexAt(va, level)
		pte := tree.LoadPTE(cur, idx)
		if !tree.ISA.IsPresent(pte) {
			child, _ := tree.AllocPTPage(0, level-1)
			tree.SetPTE(cur, idx, tree.ISA.EncodeTable(child))
			pte = tree.LoadPTE(cur, idx)
		}
		cur = tree.ISA.PFNOf(pte)
	}
	tree.SetPTE(cur, arch.IndexAt(va, 2), tree.ISA.EncodeLeaf(head, arch.PermRW, 2))

	tr, ok := tree.WalkAccess(va+5*arch.PageSize, AccessRead)
	if !ok {
		t.Fatal("huge access faulted")
	}
	if tr.PFN != head+5 || tr.Level != 2 {
		t.Fatalf("huge translation = %+v, want pfn %#x", tr, head+5)
	}
	if tree.Phys.HeadOf(tr.PFN) != head {
		t.Errorf("HeadOf(%#x) = %#x, want %#x", tr.PFN, tree.Phys.HeadOf(tr.PFN), head)
	}
	if err := tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestSetPTEPresentCount(t *testing.T) {
	tree := newTestTree(t)
	st := tree.State(tree.Root)
	data, _ := tree.Phys.AllocFrame(0, mem.KindAnon)
	// Upper-level leaf is illegal at root on x86, but SetPTE is purely
	// mechanical; use a table entry instead.
	child, _ := tree.AllocPTPage(0, arch.Levels-1)
	tree.SetPTE(tree.Root, 5, tree.ISA.EncodeTable(child))
	if st.Present != 1 {
		t.Fatalf("Present = %d", st.Present)
	}
	tree.SetPTE(tree.Root, 5, tree.ISA.EncodeTable(child)) // overwrite same
	if st.Present != 1 {
		t.Fatalf("Present after overwrite = %d", st.Present)
	}
	tree.SetPTE(tree.Root, 5, 0)
	if st.Present != 0 {
		t.Fatalf("Present after clear = %d", st.Present)
	}
	tree.ReleasePTPage(0, child)
	tree.Phys.Put(0, data)
}

func TestMetaAccounting(t *testing.T) {
	tree := newTestTree(t)
	if tree.MetaBytes.Load() != 0 {
		t.Fatal("fresh tree charges metadata")
	}
	tree.SetMeta(tree.Root, 0, Status{Kind: StatusPrivateAnon, Perm: arch.PermRW})
	if tree.MetaBytes.Load() == 0 {
		t.Fatal("metadata array not charged")
	}
	st := tree.State(tree.Root)
	if st.MetaCnt != 1 {
		t.Fatalf("MetaCnt = %d", st.MetaCnt)
	}
	if got := tree.GetMeta(tree.Root, 0); got.Kind != StatusPrivateAnon || got.Perm != arch.PermRW {
		t.Fatalf("GetMeta = %+v", got)
	}
	// Setting Invalid on an untouched page must not allocate an array.
	other, _ := tree.AllocPTPage(0, 1)
	before := tree.MetaBytes.Load()
	tree.SetMeta(other, 3, Status{})
	if tree.MetaBytes.Load() != before {
		t.Fatal("Invalid meta write allocated an array")
	}
	tree.SetMeta(tree.Root, 0, Status{})
	if st.MetaCnt != 0 {
		t.Fatalf("MetaCnt after clear = %d", st.MetaCnt)
	}
	if !tree.Empty(other) {
		t.Error("fresh page not Empty")
	}
	tree.ReleasePTPage(0, other)
}

func TestReleaseUncharges(t *testing.T) {
	tree := newTestTree(t)
	p, _ := tree.AllocPTPage(0, 1)
	tree.SetMeta(p, 0, Status{Kind: StatusPrivateAnon})
	if tree.MetaBytes.Load() == 0 {
		t.Fatal("no charge")
	}
	pages := tree.PTPageCount.Load()
	tree.ReleasePTPage(0, p)
	if tree.MetaBytes.Load() != 0 {
		t.Error("ReleasePTPage leaked metadata accounting")
	}
	if tree.PTPageCount.Load() != pages-1 {
		t.Error("PTPageCount not decremented")
	}
}

func TestStatusSlidBy(t *testing.T) {
	f := &mem.File{}
	s := Status{Kind: StatusPrivateFile, File: f, Off: 10}
	if got := s.SlidBy(5); got.Off != 15 {
		t.Errorf("SlidBy file = %+v", got)
	}
	a := Status{Kind: StatusPrivateAnon, Perm: arch.PermRW}
	if got := a.SlidBy(5); got != a {
		t.Errorf("SlidBy anon changed status: %+v", got)
	}
}

func TestDestroyFreesEverything(t *testing.T) {
	phys := mem.NewPhysMem(1<<14, 1)
	tree, err := NewTree(phys, arch.X8664{}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var released int
	var frames []arch.PFN
	for i := 0; i < 10; i++ {
		data, _ := phys.AllocFrame(0, mem.KindAnon)
		frames = append(frames, data)
		mapVA(t, tree, arch.Vaddr(uint64(i)*arch.SpanBytes(3)), data) // spread across level-3 entries
	}
	tree.Destroy(0, func(pte uint64, level int) {
		released++
		phys.Put(0, arch.PFN(tree.ISA.PFNOf(pte)))
	})
	if released != 10 {
		t.Errorf("released %d leaves, want 10", released)
	}
	if phys.KindFrames(mem.KindPT) != 0 {
		t.Errorf("leaked %d PT frames", phys.KindFrames(mem.KindPT))
	}
	if phys.KindFrames(mem.KindAnon) != 0 {
		t.Errorf("leaked %d anon frames", phys.KindFrames(mem.KindAnon))
	}
	_ = frames
}

func TestWellFormedCatchesCorruption(t *testing.T) {
	tree := newTestTree(t)
	data, _ := tree.Phys.AllocFrame(0, mem.KindAnon)
	mapVA(t, tree, 0x1000, data)
	if err := tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: stale reachable page.
	pte := tree.LoadPTE(tree.Root, 0)
	child := tree.ISA.PFNOf(pte)
	tree.State(child).Stale.Store(true)
	if err := tree.CheckWellFormed(); err == nil {
		t.Error("stale reachable page not detected")
	}
	tree.State(child).Stale.Store(false)

	// Corrupt: Present counter.
	tree.State(child).Present += 3
	if err := tree.CheckWellFormed(); err == nil {
		t.Error("Present mismatch not detected")
	}
	tree.State(child).Present -= 3

	// Corrupt: leaf pointing at a PT page.
	lvl1 := child
	for l := arch.Levels - 1; l > 1; l-- {
		lvl1 = tree.ISA.PFNOf(tree.LoadPTE(lvl1, 0))
	}
	old := tree.LoadPTE(lvl1, 1)
	tree.SetPTE(lvl1, 1, tree.ISA.EncodeLeaf(tree.Root, arch.PermRW, 1))
	if err := tree.CheckWellFormed(); err == nil {
		t.Error("leaf->PT-page corruption not detected")
	}
	tree.SetPTE(lvl1, 1, old)

	// Corrupt: Mapped status stored in metadata.
	tree.SetMeta(child, 7, Status{Kind: StatusMapped, Page: data})
	if err := tree.CheckWellFormed(); err == nil {
		t.Error("Mapped-in-meta not detected")
	}
}

// TestUnlinkedTableFillRace is FillUnlinked's contract at this layer: a
// leaf table filled with plain stores and then linked with SetPTE reads,
// to a lock-free walker that finds it through that entry, as filled —
// every entry present and of the generation that linked it — and equals
// what 512 SetPTEs build. The tables stay allocated until the end, so
// the only ordering at work is the linking store's. Run under -race.
func TestUnlinkedTableFillRace(t *testing.T) {
	tree := newTestTree(t)
	base := arch.Vaddr(1) << 30
	mapVA(t, tree, base+arch.Vaddr(arch.SpanBytes(2)), 1) // builds the levels above base's leaf table
	l2 := tree.Root
	for level := arch.Levels; level > 2; level-- {
		l2 = tree.ISA.PFNOf(tree.LoadPTE(l2, arch.IndexAt(base, level)))
	}
	idx := arch.IndexAt(base, 2)
	const gens = 400
	var checked atomic.Int64 // linked tables the walker has read through
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			e := tree.LoadPTE(l2, idx)
			if !tree.ISA.IsPresent(e) {
				continue
			}
			table := tree.ISA.PFNOf(e)
			first := tree.ISA.PFNOf(tree.LoadPTE(table, 0))
			for i := 0; i < arch.PTEntries; i++ {
				if w := tree.LoadPTE(table, i); !tree.ISA.IsPresent(w) || tree.ISA.PFNOf(w) != first+arch.PFN(i) {
					t.Errorf("linked table %#x entry %d reads %#x, entry 0 maps frame %#x", table, i, w, first)
					return
				}
			}
			if pte, _, ok := tree.Walk(base + 5*arch.PageSize); ok && (tree.ISA.PFNOf(pte)-5)%arch.PTEntries != 0 {
				t.Errorf("walk through a linked table found frame %#x", tree.ISA.PFNOf(pte))
				return
			}
			checked.Add(1)
		}
	}()
	var leaves [arch.PTEntries]uint64
	for g := 1; g <= gens && !t.Failed(); g++ {
		child, err := tree.AllocPTPage(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range leaves {
			leaves[i] = tree.ISA.EncodeLeaf(arch.PFN(g*arch.PTEntries+i), arch.PermRW|arch.PermUser, 1)
		}
		tree.FillUnlinked(child, leaves[:])
		tree.SetPTE(l2, idx, tree.ISA.EncodeTable(child))
		// Unlink once the walker has been through this table, or one before.
		for n := checked.Load(); checked.Load() == n && !t.Failed(); {
			runtime.Gosched()
		}
		if g < gens {
			tree.SetPTE(l2, idx, 0)
		}
	}
	done.Store(true)
	wg.Wait()
	// The last table, still linked, against one built entry by entry.
	ref, err := tree.AllocPTPage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range leaves {
		tree.SetPTE(ref, i, e)
	}
	last := tree.ISA.PFNOf(tree.LoadPTE(l2, idx))
	if *tree.Words(last) != *tree.Words(ref) || tree.State(last).Present != tree.State(ref).Present {
		t.Errorf("FillUnlinked left Present %d and other words than %d SetPTEs (Present %d)",
			tree.State(last).Present, len(leaves), tree.State(ref).Present)
	}
}
