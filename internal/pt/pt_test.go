package pt

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

func newTestTree(t *testing.T) *Tree {
	t.Helper()
	phys := mem.NewPhysMem(1<<14, 4)
	tree, err := NewTree(phys, arch.X8664(false), 4, true)
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
	if got := tree.MetaBytes.Load(); got != arch.PageSize {
		t.Fatalf("one metadata array charged %d bytes, want %d: one word beside each PTE", got, arch.PageSize)
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

// nopMapper registers test files in the machine's object table.
type nopMapper struct{}

func (nopMapper) RMapUnmap(*mem.File, uint64) {}

func TestStatusSlidBy(t *testing.T) {
	tree := newTestTree(t)
	f := mem.NewFile(tree.Phys, "f", 64*arch.PageSize)
	if err := f.AddMapper(nopMapper{}); err != nil {
		t.Fatal(err)
	}
	s := FileStatus(StatusPrivateFile, arch.PermRead, f, 10)
	if got := s.SlidBy(5); got.Off() != 15 || got.File(tree.Phys) != f {
		t.Errorf("SlidBy file = %+v", got)
	}
	a := Status{Kind: StatusPrivateAnon, Perm: arch.PermRW}
	if got := a.SlidBy(5); got != a {
		t.Errorf("SlidBy anon changed status: %+v", got)
	}
	if got := (Status{}).SlidBy(5); got != (Status{}) {
		t.Errorf("SlidBy made an empty status %+v", got)
	}
	f.RemoveMappers(nopMapper{}, 1)
	if f.ID() != 0 || s.File(tree.Phys) != nil {
		t.Errorf("file keeps id %d after its last mapper left", f.ID())
	}
}

// TestStatusShape pins what makes the metadata path cheap: Status is at
// most four pointer-free fields in at most 32 bytes (a larger struct is
// kept out of registers, DESIGN.md §3), a metadata array is one uint64
// beside each PTE — exactly one page — and nothing a PT page's state
// reaches is a decoded Status, a file or a block device.
func TestStatusShape(t *testing.T) {
	st := reflect.TypeOf(Status{})
	if st.NumField() > 4 || st.Size() > 32 {
		t.Errorf("Status has %d fields in %d bytes; want at most 4 in at most 32", st.NumField(), st.Size())
	}
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("Status.%s is a %v; only fixed-size integers belong in it", f.Name, f.Type.Kind())
		}
	}
	for _, name := range []string{"Kind", "Perm"} {
		if f, ok := st.FieldByName(name); !ok || !f.IsExported() {
			t.Errorf("Status.%s is no longer a plain field (benchmark/adapter.go writes and reads it)", name)
		}
	}
	if el := reflect.TypeOf(MetaArray{}).Elem(); el != reflect.TypeOf(uint64(0)) {
		t.Errorf("MetaArray element is %v, want uint64", el)
	}
	if got := unsafe.Sizeof(MetaArray{}); got != arch.PageSize {
		t.Errorf("MetaArray is %d bytes, want one page", got)
	}
	banned := map[reflect.Type]bool{
		st: true, reflect.TypeOf(mem.File{}): true, reflect.TypeOf(mem.BlockDev{}): true,
	}
	seen := map[reflect.Type]bool{}
	var visit func(reflect.Type, string)
	visit = func(ty reflect.Type, path string) {
		if banned[ty] {
			t.Errorf("PageState reaches a %v through %s", ty, path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Ptr, reflect.Array, reflect.Slice, reflect.Map, reflect.Chan:
			visit(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				visit(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	visit(reflect.TypeOf(PageState{}), "PageState")
}

// FuzzStatusWord is the encoding's contract: Pack accepts exactly the
// statuses an independent reading of the bit layout allows; on those,
// decoding the word gives the status back, never a Mapped one, and
// sliding the word is sliding the status; and any word at all decodes to
// something allocated iff its kind bits are set, and re-encodes to itself
// less the reserved bits.
func FuzzStatusWord(f *testing.F) {
	phys := mem.NewPhysMem(1<<10, 1)
	tree, err := NewTree(phys, arch.X8664(false), 1, false)
	if err != nil {
		f.Fatal(err)
	}
	// Every object id names a file, and id 1 a swap device too.
	for i := 0; i < mem.MaxObjID; i++ {
		if err := mem.NewFile(phys, "f", arch.PageSize).AddMapper(nopMapper{}); err != nil {
			f.Fatal(err)
		}
	}
	if err := mem.NewFile(phys, "one too many", arch.PageSize).AddMapper(nopMapper{}); err != mem.ErrObjTableFull {
		f.Fatalf("file %d registered: %v, want ErrObjTableFull", mem.MaxObjID+1, err)
	}
	if id := phys.RegisterDev(mem.NewBlockDev("swap")); id != 1 {
		f.Fatalf("first device got id %d", id)
	}
	const top = payloadLimit - 1
	f.Add(uint8(StatusPrivateAnon), uint16(arch.PermRW), uint8(0), uint8(0), uint32(0), uint64(0), uint64(1), uint64(0))
	f.Add(uint8(StatusPrivateAnon), uint16(permMax), uint8(arch.MaxProtKey), uint8(3), uint32(0), uint64(0), uint64(1)<<36, uint64(1)<<15)
	f.Add(uint8(StatusSharedFile), uint16(arch.PermRW|arch.PermShared), uint8(7), uint8(2), uint32(mem.MaxObjID), uint64(top), uint64(1), ^uint64(0))
	f.Add(uint8(StatusPrivateFile), uint16(arch.PermRead), uint8(0), uint8(0), uint32(1), uint64(top-511), uint64(512), uint64(StatusMapped))
	f.Add(uint8(StatusSharedAnon), uint16(arch.PermRW), uint8(0), uint8(0), uint32(9), uint64(top), uint64(2), uint64(6))
	f.Add(uint8(StatusSwapped), uint16(arch.PermRW), uint8(15), uint8(0), uint32(1), uint64(top), uint64(1), uint64(7))
	f.Add(uint8(StatusSwapped), uint16(arch.PermRW), uint8(0), uint8(0), uint32(2), uint64(0), uint64(1), uint64(0))
	f.Add(uint8(StatusMapped), uint16(arch.PermRW), uint8(0), uint8(0), uint32(0), uint64(77), uint64(1), uint64(0))
	f.Add(uint8(9), uint16(0xffff), uint8(200), uint8(7), uint32(1<<12), uint64(1)<<32, uint64(0), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, kind uint8, perm uint16, key, huge uint8, id uint32, val, pages, raw uint64) {
		s := Status{Kind: StatusKind(kind), Perm: arch.Perm(perm), attr: uint32(key) | uint32(huge)<<8 | id<<16, val: val}
		pages = max(pages, 1) // Mark's range check leaves no empty span to pack for
		fields := perm <= permMax && key <= uint8(arch.MaxProtKey) && (huge == 0 || huge == 2 || huge == 3) &&
			id < 1<<16
		var want bool
		switch s.Kind {
		case StatusInvalid:
			want = s == Status{}
		case StatusPrivateAnon:
			want = fields && id == 0 && val == 0
		case StatusPrivateFile, StatusSharedAnon, StatusSharedFile:
			want = fields && id >= 1 && id <= mem.MaxObjID && val <= top && pages <= payloadLimit-val
		case StatusSwapped:
			want = fields && id == 1 && val <= top
		}
		w, err := tree.Pack(s, pages)
		if want != (err == nil) {
			t.Fatalf("Pack(%+v, %d pages) = %#x, %v; the layout says valid=%v", s, pages, w, err, want)
		}
		if err == nil {
			got := Unpack(w)
			if got != s || got.Kind == StatusMapped || got.Allocated() != (w&kindMask != 0) {
				t.Fatalf("%+v packs to %#x, which decodes to %+v", s, w, got)
			}
			if !tree.WordOK(w) {
				t.Fatalf("Pack produced %#x, which WordOK rejects", w)
			}
			for _, n := range []uint64{0, pages / 2, pages - 1} {
				if Slide(w, n) != s.SlidBy(n).word() || Unpack(Slide(w, n)) != s.SlidBy(n) {
					t.Fatalf("%+v slid by %d: word %#x, status %+v", s, n, Slide(w, n), s.SlidBy(n))
				}
			}
		}
		d := Unpack(raw)
		if d.Allocated() != (raw&kindMask != 0) || d.word() != raw&^reservedMask {
			t.Fatalf("word %#x decodes to %+v, which encodes to %#x", raw, d, d.word())
		}
		if tree.WordOK(raw) {
			if w, err := tree.Pack(d, 1); err != nil || w != raw || d.Kind == StatusMapped {
				t.Fatalf("WordOK accepts %#x = %+v, but Pack gives %#x, %v", raw, d, w, err)
			}
		}
	})
}

func TestDestroyFreesEverything(t *testing.T) {
	phys := mem.NewPhysMem(1<<14, 1)
	tree, err := NewTree(phys, arch.X8664(false), 1, false)
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

	// Corrupt metadata words: a Mapped status (it lives in the PTE), a
	// reserved bit, an object id nothing registered, a payload on a kind
	// that has none, garbage under an Invalid kind.
	anon := Status{Kind: StatusPrivateAnon, Perm: arch.PermRW}.word()
	for name, w := range map[string]uint64{
		"Mapped-in-meta":   MappedStatus(data, arch.PermRW, 0, 1).word(),
		"reserved bit":     anon | 1<<15,
		"unregistered id":  Status{Kind: StatusSharedFile, Perm: arch.PermRW, attr: 77 << 16}.word(),
		"no swap device":   SwappedStatus(arch.PermRW, 1, 3).word(),
		"anon with an id":  anon | 5<<objShift,
		"huge level 1":     anon | 1<<hugeShift,
		"bits, no kind":    anon &^ kindMask,
		"kind beyond enum": anon | kindMask,
	} {
		tree.SetMetaWord(child, 7, w)
		if err := tree.CheckWellFormed(); err == nil {
			t.Errorf("%s (%#x) not detected", name, w)
		}
	}
	tree.SetMetaWord(child, 7, anon)
	if err := tree.CheckWellFormed(); err != nil {
		t.Errorf("a well-formed word is rejected: %v", err)
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
