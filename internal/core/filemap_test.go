package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// treeRegistrations recounts, from a's page table, the references a's
// words hold on each file: one per status word that names the file,
// marked or beside a PTE. Each block a Swapped word names is set in
// blocks. It also fails t unless every present leaf that maps a
// page-cache frame has a word beside it naming that frame's file page,
// and a leaf of an anonymous frame has none unless it is a private copy
// of a file page (a PrivateFile word). The tree must be quiescent.
func treeRegistrations(t *testing.T, a *AddrSpace, blocks map[uint64]bool) map[*mem.File]uint64 {
	t.Helper()
	tree, isa, phys := a.tree, a.isa, a.m.Phys
	n := map[*mem.File]uint64{}
	var visit func(pfn arch.PFN, level int)
	visit = func(pfn arch.PFN, level int) {
		for i := 0; i < arch.PTEntries; i++ {
			s := tree.GetMeta(pfn, i)
			switch {
			case s.Kind >= pt.StatusPrivateFile && s.Kind <= pt.StatusSharedFile:
				n[s.File(phys)]++
			case s.Kind == pt.StatusSwapped:
				blocks[s.Block()] = true
			}
			pte := tree.LoadPTE(pfn, i)
			switch {
			case !isa.IsPresent(pte):
			case !isa.IsLeaf(pte, level):
				visit(isa.PFNOf(pte), level-1)
			default:
				switch d := phys.Desc(phys.HeadOf(isa.PFNOf(pte))); {
				case d.Kind == mem.KindFile && (s.File(phys) != d.RMap.File || s.Off() != d.RMap.Index || s.Kind == pt.StatusSwapped):
					t.Errorf("leaf %#x[%d] maps page %d of file %q beside word %+v", pfn, i, d.RMap.Index, d.RMap.File.Name, s)
				case d.Kind != mem.KindFile && s.Allocated() && s.Kind != pt.StatusPrivateFile:
					t.Errorf("leaf %#x[%d] of an anonymous frame has word %+v", pfn, i, s)
				}
			}
		}
	}
	visit(tree.Root, arch.Levels)
	return n
}

// checkRegistrations fails unless every file that holds an object id,
// every file in files and every file the spaces' trees name holds as
// many references as the spaces' words name it, and holds an id iff it
// holds a reference; unless the machine's swap device holds exactly the
// blocks the trees' words name; and unless every leaf carries the origin
// word treeRegistrations asks for.
func checkRegistrations(t *testing.T, phys *mem.PhysMem, files []*mem.File, spaces ...*AddrSpace) {
	t.Helper()
	check := slices.Clone(files)
	for id := uint32(1); id <= mem.MaxObjID; id++ {
		if f := phys.FileByID(id); f != nil {
			check = append(check, f)
		}
	}
	want := map[*mem.File]uint64{}
	blocks := map[uint64]bool{}
	for _, a := range spaces {
		for f, n := range treeRegistrations(t, a, blocks) {
			want[f] += n
			check = append(check, f)
		}
	}
	for _, f := range check {
		if refs := f.Refs(); refs != want[f] || (f.ID() != 0) != (refs > 0) {
			t.Errorf("file %q: id %d, %d references, the page tables name it %d times", f.Name, f.ID(), refs, want[f])
		}
	}
	if n := phys.Swap().InUse(); n != len(blocks) {
		t.Errorf("the swap device holds %d blocks, the page tables name %d", n, len(blocks))
	}
}

// TestMunmapPrunesFileMappings: unmapping a file mapping gives back the
// references its words held on the file — a partial unmap keeps the
// rest, a second mapping keeps the file held, and the last unmap ends
// the references and the file's object id.
func TestMunmapPrunesFileMappings(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", 8*arch.PageSize)
	step := func(what string, wantRefs uint64) {
		t.Helper()
		if refs := f.Refs(); refs != wantRefs {
			t.Fatalf("%s: the file holds %d references, want %d", what, refs, wantRefs)
		}
		checkRegistrations(t, m.Phys, []*mem.File{f}, a)
	}

	va1, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := a.MmapFile(0, f, 4, 4*arch.PageSize, arch.PermRead, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va1, 1); err != nil {
		t.Fatal(err)
	}
	step("two 4-page MmapFiles", 8)

	// A partial unmap keeps the references of what stays mapped.
	if err := a.Munmap(0, va1, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	step("partial unmap", 7)

	// Unmapping the first mapping in full keeps the file held by the
	// surviving second mapping.
	if err := a.Munmap(0, va1, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	step("first mapping unmapped", 4)

	// Unmapping the last mapping ends the references and the id.
	if err := a.Munmap(0, va2, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	step("last unmap", 0)
	if f.ID() != 0 {
		t.Fatalf("file keeps id %d with nothing mapped", f.ID())
	}
	checkWF(t, a)
}

// TestMremapGrowKeepsFileMapper: a growing Mremap moves a file mapping,
// it does not unmap it — the old VAs go back to the allocator, but the
// moved words keep the file held while the pages live on at the new
// address.
func TestMremapGrowKeepsFileMapper(t *testing.T) {
	const size = 4 * arch.PageSize
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", size)
	va, err := a.MmapFile(0, f, 0, size, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va, 7); err != nil {
		t.Fatal(err)
	}
	nva, err := a.Mremap(0, va, size, 2*size)
	if err != nil || nva == va {
		t.Fatalf("grow = %#x, %v", nva, err)
	}
	if refs := f.Refs(); refs != 4 {
		t.Fatalf("after the move: %d file references, want 4", refs)
	}
	checkRegistrations(t, m.Phys, []*mem.File{f}, a)
	if b, err := a.Load(0, nva); err != nil || b != 7 {
		t.Fatalf("moved page reads %d, %v", b, err)
	}
	if again, _ := a.Mmap(0, size, arch.PermRW, 0); again != va {
		t.Fatalf("old range %#x not recycled: got %#x", va, again)
	}
	// The references moved with the words and the page, so the old
	// range's next tenant leaving does not end them — nor the object id
	// the moved, not yet faulted pages name their file by.
	if err := a.Munmap(0, va, size); err != nil {
		t.Fatal(err)
	}
	if refs := f.Refs(); refs != 4 || f.ID() == 0 {
		t.Fatalf("after the old range's next tenant left: %d file references, file id %d", refs, f.ID())
	}
	if err := a.Store(0, nva+arch.PageSize, 8); err != nil {
		t.Fatalf("fault on a moved, never-touched file page: %v", err)
	}

	// A move of part of a mapping takes its part of the references;
	// unmapping where the whole mapping used to be leaves the moved part
	// mapped, holding its file and reading its own file pages.
	g := mem.NewFile(m.Phys, "split", 2*size)
	gva, err := a.MmapFile(0, g, 0, 2*size, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, gva+size+arch.PageSize, 5); err != nil { // file page 5
		t.Fatal(err)
	}
	mva, err := a.Mremap(0, gva+size, size, 2*size)
	if err != nil || mva == gva+size {
		t.Fatalf("grow of the second half = %#x, %v", mva, err)
	}
	if err := a.Munmap(0, gva, 2*size); err != nil {
		t.Fatal(err)
	}
	if g.ID() == 0 {
		t.Fatal("file lost its object id while its moved half is still mapped")
	}
	if b, err := a.Load(0, mva+arch.PageSize); err != nil || b != 5 {
		t.Fatalf("moved half reads %d, %v at file page 5, want 5", b, err)
	}
	if err := a.Store(0, mva+2*arch.PageSize, 6); err != nil { // faults file page 6 in through the word
		t.Fatal(err)
	}
	pfn, err := g.GetPage(0, 6)
	if err != nil || m.Phys.Data(pfn)[0] != 6 {
		t.Fatalf("the moved half's third page is not file page 6: %v", err)
	}
	m.Phys.Put(0, pfn)
	checkRegistrations(t, m.Phys, []*mem.File{f, g}, a)
	checkQuiet(t, a)
}

// TestMarkedWordHoldsItsFile: a status word that names a file holds one
// reference on it, and a mapped page holds its file through its word:
// a raw Tx.Map of a page-cache frame stores the frame's file word beside
// the PTE. Either alone keeps the file's object id after the mapping that
// gave it one is unmapped, so the next file cannot take the id, and the
// word — or the page, once dropped back to its word — still reaches the
// first file's bytes.
func TestMarkedWordHoldsItsFile(t *testing.T) {
	const pg = arch.PageSize
	for _, p := range protocols {
		for _, via := range []string{"Tx.Mark", "Tx.Map"} {
			t.Run(p.String()+"/"+via, func(t *testing.T) {
				a, m := newSpace(t, p)
				f := mem.NewFile(m.Phys, "f", pg)
				va, err := a.MmapFile(0, f, 0, pg, arch.PermRW, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Store(0, va, 'F'); err != nil {
					t.Fatal(err)
				}
				// A second page that names f, built through the
				// transactional interface alone.
				other := arch.Vaddr(0x4000_0000)
				c, err := a.Lock(0, other, other+pg)
				if err != nil {
					t.Fatal(err)
				}
				if via == "Tx.Mark" {
					err = c.Mark(other, other+pg, pt.FileStatus(pt.StatusSharedFile, arch.PermRW, f, 0))
				} else {
					var frame arch.PFN
					if frame, err = f.GetPage(0, 0); err == nil {
						err = c.Map(other, frame, 1, arch.PermRW|arch.PermShared)
					}
				}
				c.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Munmap(0, va, pg); err != nil {
					t.Fatal(err)
				}
				id := f.ID()
				gva, err := a.MmapSharedAnon(0, pg, arch.PermRW)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Store(0, gva, 'G'); err != nil {
					t.Fatal(err)
				}
				if id == 0 || f.ID() != id || m.Phys.FileByID(id) != f {
					t.Errorf("with its mapping gone the file held id %d, and holds %d after the next file mapped; id %d names %v",
						id, f.ID(), id, m.Phys.FileByID(id))
				}
				// Dropping the page (Tx.Map) leaves a word naming f behind.
				for _, drop := range []bool{false, true} {
					if drop {
						if err := a.MadviseDontNeed(0, other, pg); err != nil {
							t.Fatal(err)
						}
					}
					if b, err := a.Load(0, other); err != nil || b != 'F' {
						t.Errorf("%s page (dropped %v) reads %q, %v; want the file's 'F'", via, drop, b, err)
					}
				}
				checkRegistrations(t, m.Phys, []*mem.File{f}, a)
				checkQuiet(t, a)
				a.Destroy(0)
				if n := m.Phys.FilesInUse(); n != 0 {
					t.Errorf("%d file ids live after Destroy", n)
				}
				checkClean(t, m)
			})
		}
	}
}

// TestFileRegistrationsFollowPageTable runs a seeded random stream of
// file, shared-anonymous and anonymous mappings, partial and middle
// unmaps, Mremap grows and shrinks, forks and child teardowns,
// MADV_DONTNEED, loads, copy-on-write-breaking stores (to any page, and
// to a private file page), SwapOut in either space (a fork shares the
// blocks of swapped pages), and Tx.Mark and Tx.Map of file pages, on
// both protocols. After every op it recounts each file's words across
// the trees, which must equal the file's reference count, and the swap
// device's blocks in use, which must be the distinct blocks the words
// name; it checks every leaf's origin word, and a file must hold an id
// iff it holds a reference. The 1 024-page mappings put file
// words at level 2, so faults and partial unmaps push them down, and
// whole-mapping unmaps sweep leaf tables of page-cache frames and of
// their private copies.
func TestFileRegistrationsFollowPageTable(t *testing.T) {
	const pg = arch.PageSize
	const filePages = 1024 + 64
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			files := make([]*mem.File, 3)
			for i := range files {
				files[i] = mem.NewFile(m.Phys, fmt.Sprintf("f%d", i), filePages*pg)
			}

			// A private mapping whose every page has been COW-broken still
			// holds its file: each page's word names its file page.
			va, err := a.MmapFile(0, files[0], 0, 2*pg, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := arch.Vaddr(0); i < 2; i++ {
				if err := a.Store(0, va+i*pg, 1); err != nil {
					t.Fatal(err)
				}
			}
			if refs := files[0].Refs(); refs != 2 || files[0].ID() == 0 {
				t.Errorf("a fully COW-broken private mapping: %d references, id %d; want 2 and an id", refs, files[0].ID())
			}
			checkRegistrations(t, m.Phys, files, a)
			if err := a.Munmap(0, va, 2*pg); err != nil {
				t.Fatal(err)
			}

			// A swapped page the stream leaves alone: every fork shares
			// its block, and the child's teardown gives its reference back.
			swapped, err := a.Mmap(0, pg, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, swapped, 1); err != nil {
				t.Fatal(err)
			}
			if n, err := a.SwapOut(0, swapped, pg); err != nil || n != 1 {
				t.Fatalf("SwapOut = %d, %v", n, err)
			}

			type region struct {
				a     *AddrSpace
				va    arch.Vaddr
				pages uint64
				// private marks a private file mapping.
				private bool
			}
			rng := rand.New(rand.NewSource(32))
			var regions []region
			spaces := []*AddrSpace{a}
			sizes := []uint64{1, 2, 5, 64, 1024}
			size := func() uint64 { return sizes[rng.Intn(len(sizes))] }
			file := func() *mem.File { return files[rng.Intn(len(files))] }
			// sub picks a piece [s, e) of n pages: all, a prefix, a suffix or
			// a middle.
			sub := func(n uint64) (s, e uint64) {
				s, e = 0, n
				if n > 1 {
					switch cut := 1 + rng.Uint64()%(n-1); rng.Intn(4) {
					case 1:
						e = cut
					case 2:
						s = cut
					case 3:
						if n > 2 {
							s = 1 + rng.Uint64()%(n-2)
							e = s + 1 + rng.Uint64()%(n-1-s)
						}
					}
				}
				return s, e
			}
			for step := 0; step < 300; step++ {
				op := rng.Intn(16)
				switch {
				case len(regions) == 0:
					op %= 3 // map something
				case len(regions) > 8 && op < 3:
					op = 3 // unmap instead
				}
				var i int
				var r region
				if len(regions) > 0 {
					i = rng.Intn(len(regions))
					r = regions[i]
				}
				at := func(s uint64) arch.Vaddr { return r.va + arch.Vaddr(s*pg) }
				var name string
				var err error
				switch op {
				case 0:
					name = "MmapFile"
					n, f, sp, shared := size(), file(), spaces[rng.Intn(len(spaces))], rng.Intn(2) == 0
					var va arch.Vaddr
					if va, err = sp.MmapFile(0, f, rng.Uint64()%(filePages-n+1), n*pg, arch.PermRW, shared); err == nil {
						regions = append(regions, region{sp, va, n, !shared})
					}
				case 1:
					name = "MmapSharedAnon"
					n, sp := size(), spaces[rng.Intn(len(spaces))]
					var va arch.Vaddr
					if va, err = sp.MmapSharedAnon(0, n*pg, arch.PermRW); err == nil {
						regions = append(regions, region{sp, va, n, false})
					}
				case 2:
					name = "Mmap"
					n, sp := size(), spaces[rng.Intn(len(spaces))]
					var va arch.Vaddr
					if va, err = sp.Mmap(0, n*pg, arch.PermRW, 0); err == nil {
						regions = append(regions, region{sp, va, n, false})
					}
				case 3:
					name = "Munmap"
					s, e := sub(r.pages)
					if err = r.a.Munmap(0, at(s), (e-s)*pg); err == nil {
						regions = slices.Delete(regions, i, i+1)
						if s > 0 {
							regions = append(regions, region{r.a, r.va, s, r.private})
						}
						if e < r.pages {
							regions = append(regions, region{r.a, at(e), r.pages - e, r.private})
						}
					}
				case 4:
					name = "Mremap"
					n := r.pages + size()
					if n > 4096 || rng.Intn(3) == 0 {
						n = 1 + rng.Uint64()%r.pages // shrink, or keep
					}
					var va arch.Vaddr
					if va, err = r.a.Mremap(0, r.va, r.pages*pg, n*pg); err == nil {
						regions[i] = region{r.a, va, n, r.private && n <= r.pages}
					}
				case 5:
					name = "Fork"
					if len(spaces) == 1 {
						var child mm.MM
						if child, err = a.Fork(0); err == nil {
							spaces = append(spaces, child.(*AddrSpace))
							for _, r := range regions {
								regions = append(regions, region{spaces[1], r.va, r.pages, r.private})
							}
						}
						break
					}
					name = "Destroy"
					spaces[1].Destroy(0)
					regions = slices.DeleteFunc(regions, func(r region) bool { return r.a == spaces[1] })
					spaces = spaces[:1]
				case 6:
					name = "MadviseDontNeed"
					s, e := sub(r.pages)
					err = r.a.MadviseDontNeed(0, at(s), (e-s)*pg)
				case 7, 8:
					name = "Load"
					for s := rng.Uint64() % r.pages; s < r.pages && err == nil && rng.Intn(16) != 0; s++ {
						_, err = r.a.Load(0, at(s))
					}
				case 9, 10:
					name = "Store"
					err = r.a.Store(0, at(rng.Uint64()%r.pages), byte(step))
				case 11:
					name = "Tx.Mark"
					s, e := sub(r.pages)
					e = min(e, s+filePages) // a grown region can outsize the files
					f, kind := file(), pt.StatusSharedFile
					if rng.Intn(2) == 0 {
						kind = pt.StatusPrivateFile
					}
					var c *RCursor
					if c, err = r.a.Lock(0, at(s), at(e)); err == nil {
						err = c.Mark(at(s), at(e), pt.FileStatus(kind, arch.PermRW, f, rng.Uint64()%(filePages-(e-s)+1)))
						c.Close()
						if f.ID() == 0 && errors.Is(err, mm.ErrBadRange) {
							err = nil // a status naming an unmapped file is refused
						}
					}
				case 13:
					name = "Store (private file)"
					for _, j := range rng.Perm(len(regions)) {
						if r := regions[j]; r.private {
							err = r.a.Store(0, r.va+arch.Vaddr(rng.Uint64()%r.pages*pg), byte(step))
							break
						}
					}
				case 14:
					name = "MadviseDontNeed (whole)"
					err = r.a.MadviseDontNeed(0, r.va, r.pages*pg)
				case 15:
					name = "SwapOut"
					s, e := sub(r.pages)
					if err = r.a.Store(0, at(s), byte(step)); err == nil { // an anonymous page to swap
						_, err = r.a.SwapOut(0, at(s), (e-s)*pg)
					}
				case 12:
					name = "Tx.Map"
					s := rng.Uint64() % r.pages
					var frame arch.PFN
					var c *RCursor
					if frame, err = file().GetPage(0, rng.Uint64()%filePages); err == nil {
						if c, err = r.a.Lock(0, at(s), at(s+1)); err == nil {
							err = c.Map(at(s), frame, 1, arch.PermRW|arch.PermShared)
							c.Close()
						}
					}
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, name, err)
				}
				checkRegistrations(t, m.Phys, files, spaces...)
				if t.Failed() {
					t.Fatalf("step %d: %s broke the references", step, name)
				}
			}
			for _, sp := range spaces {
				checkQuiet(t, sp)
			}
			for i := len(spaces) - 1; i >= 0; i-- {
				spaces[i].Destroy(0)
			}
			if n := m.Phys.FilesInUse(); n != 0 {
				t.Errorf("%d file ids live after every space is gone", n)
			}
			checkClean(t, m)
		})
	}
}

// TestGetPageAllocatesUnlocked: a page-cache miss allocates with the
// file unlocked. The allocation may run direct reclaim, which waits on
// another space's PT locks; before, it did so holding the file's lock,
// so a core holding one of those PT locks that then faulted the same
// file hung both cores. Here core 1 holds a transaction in the reclaimed
// space B while core 0's fault on a file page of space A is in direct
// reclaim; core 1's GetPage on that file must return, and once it closes
// its transaction core 0's fault completes.
func TestGetPageAllocatesUnlocked(t *testing.T) {
	const wait = 10 * time.Second
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 256})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			f := mem.NewFile(m.Phys, "f", 2*arch.PageSize)
			fva, err := a.MmapFile(0, f, 0, 2*arch.PageSize, arch.PermRW, true)
			if err != nil {
				t.Fatal(err)
			}
			bva, err := b.Mmap(0, 32*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			// Exhaust memory before reclaim is on, so only B's cold pages
			// can satisfy the next allocation.
			var held []arch.PFN
			for {
				pfn, err := m.Phys.AllocFrame(0, mem.KindKernel)
				if err != nil {
					break
				}
				held = append(held, pfn)
			}
			d := AttachReclaim(m, ReclaimConfig{})

			c, err := b.Lock(1, bva, bva+arch.PageSize) // core 1 inside a transaction of B
			if err != nil {
				t.Fatal(err)
			}
			faulted := make(chan error, 1)
			go func() {
				_, err := a.Load(0, fva)
				faulted <- err
			}()
			for deadline := time.Now().Add(wait); d.Stats().DirectRounds == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("core 0's fault never reached direct reclaim")
				}
			}
			got := make(chan error, 1)
			go func() {
				pfn, err := f.GetPage(1, 1)
				if err == nil {
					m.Phys.Put(1, pfn)
				}
				got <- err
			}()
			select {
			case <-got: // a page, or out of memory: either way it returned
			case <-time.After(wait):
				t.Fatal("GetPage on core 1 hung: core 0 holds the file locked inside direct reclaim, which waits on core 1")
			}
			c.Close()
			select {
			case err := <-faulted:
				if err != nil {
					t.Errorf("core 0's fault: %v", err)
				}
			case <-time.After(wait):
				t.Fatal("core 0's fault did not finish after core 1 closed its transaction")
			}
			for _, pfn := range held {
				m.Phys.Put(0, pfn)
			}
			a.Destroy(0)
			b.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestSplitUnmapReleasesFile: a file mapping unmapped in pieces keeps a
// reference for exactly the words and pages still mapped — a cut in the
// middle leaves both ends — and gives back its last reference and its
// object id with the last piece; so shared mappings unmapped a page
// at a time never fill the machine's object table.
func TestSplitUnmapReleasesFile(t *testing.T) {
	const pg = arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			defer a.Destroy(0)
			munmap := func(va arch.Vaddr, pages uint64) {
				t.Helper()
				if err := a.Munmap(0, va, pages*pg); err != nil {
					t.Fatal(err)
				}
			}
			f := mem.NewFile(m.Phys, "f", 4*pg)
			left := func() string {
				return fmt.Sprintf("file id %d, %d references", f.ID(), f.Refs())
			}
			t.Run("split unmap", func(t *testing.T) {
				va, err := a.MmapFile(0, f, 0, 4*pg, arch.PermRW, true)
				if err != nil {
					t.Fatal(err)
				}
				munmap(va, 2)
				munmap(va+2*pg, 2)
				if got := left(); got != "file id 0, 0 references" {
					t.Errorf("halves unmapped: %s", got)
				}
				if va, err = a.MmapFile(0, f, 0, 4*pg, arch.PermRW, true); err != nil {
					t.Fatal(err)
				}
				if err := a.Store(0, va+3*pg, 3); err != nil { // page 3 mapped, not a word
					t.Fatal(err)
				}
				munmap(va+pg, 2)
				if got := left(); got != fmt.Sprintf("file id %d, 2 references", f.ID()) || f.ID() == 0 {
					t.Errorf("middle cut: %s", got)
				}
				checkRegistrations(t, m.Phys, []*mem.File{f}, a)
				munmap(va, 1)
				if f.ID() == 0 {
					t.Error("the file lost its id while page 3 is still mapped")
				}
				munmap(va+3*pg, 1)
				if got := left(); got != "file id 0, 0 references" {
					t.Errorf("middle cut, then both ends: %s", got)
				}
			})
			t.Run("churn", func(t *testing.T) {
				for i := 0; i <= mem.MaxObjID; i++ {
					va, err := a.MmapSharedAnon(0, 2*pg, arch.PermRW)
					if err != nil {
						t.Fatalf("cycle %d: %v", i, err)
					}
					munmap(va, 1)
					munmap(va+pg, 1)
				}
				if n := m.Phys.FilesInUse(); n != 0 {
					t.Errorf("%d file ids live after page-by-page unmaps", n)
				}
			})
			checkQuiet(t, a)
		})
	}
}
