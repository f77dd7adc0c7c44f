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

// treeRegistrations recounts, from a's page table, the registrations a
// must hold with each file: one per status word that names the file and
// one per present PTE that maps one of its page-cache frames. The tree
// must be quiescent.
func treeRegistrations(a *AddrSpace) map[*mem.File]uint64 {
	t, isa, phys := a.tree, a.isa, a.m.Phys
	n := map[*mem.File]uint64{}
	var visit func(pfn arch.PFN, level int)
	visit = func(pfn arch.PFN, level int) {
		for i := 0; i < arch.PTEntries; i++ {
			if s := t.GetMeta(pfn, i); s.Kind >= pt.StatusPrivateFile && s.Kind <= pt.StatusSharedFile {
				n[s.File(phys)]++
			}
			pte := t.LoadPTE(pfn, i)
			switch {
			case !isa.IsPresent(pte):
			case !isa.IsLeaf(pte, level):
				visit(isa.PFNOf(pte), level-1)
			default:
				if d := phys.Desc(phys.HeadOf(isa.PFNOf(pte))); d.Kind == mem.KindFile {
					n[d.RMap.File]++
				}
			}
		}
	}
	visit(t.Root, arch.Levels)
	return n
}

// registrations returns how many spaces f has registered and how many
// registrations space a holds with it.
func registrations(f *mem.File, a *AddrSpace) (spaces int, held uint64) {
	f.ForEachMapper(func(t mem.RMapTarget, n uint64) {
		spaces++
		if t == a {
			held = n
		}
	})
	return spaces, held
}

// checkRegistrations fails unless every file that holds an object id,
// every file in files and every file the spaces' trees name is registered
// with exactly the spaces whose trees name it, as often as they do, and
// holds an id iff something registers it.
func checkRegistrations(t *testing.T, phys *mem.PhysMem, files []*mem.File, spaces ...*AddrSpace) {
	t.Helper()
	check := slices.Clone(files)
	for id := uint32(1); id <= mem.MaxObjID; id++ {
		if f := phys.FileByID(id); f != nil {
			check = append(check, f)
		}
	}
	want := make([]map[*mem.File]uint64, len(spaces))
	for i, a := range spaces {
		want[i] = treeRegistrations(a)
		for f := range want[i] {
			check = append(check, f)
		}
	}
	for _, f := range check {
		naming := 0
		for i, a := range spaces {
			if _, held := registrations(f, a); held != want[i][f] {
				t.Errorf("file %q (id %d): space %d holds %d registrations, its page table names the file %d times",
					f.Name, f.ID(), i, held, want[i][f])
			}
			if want[i][f] > 0 {
				naming++
			}
		}
		if registered, _ := registrations(f, nil); registered != naming || (f.ID() != 0) != (registered > 0) {
			t.Errorf("file %q: id %d, %d spaces registered, %d page tables name it", f.Name, f.ID(), registered, naming)
		}
	}
}

// TestMunmapPrunesFileMappings: unmapping a file mapping gives back the
// space's registrations with the file — a partial unmap keeps the rest,
// a second mapping keeps the space registered, and the last unmap ends
// the registration and the file's object id. Before this was enforced,
// Munmap left the registration behind, so a long-lived space that mapped
// and unmapped files kept shooting down pages it no longer mapped.
func TestMunmapPrunesFileMappings(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", 8*arch.PageSize)
	step := func(what string, wantSpaces int) {
		t.Helper()
		if spaces, _ := registrations(f, a); spaces != wantSpaces {
			t.Fatalf("%s: %d spaces registered with the file, want %d", what, spaces, wantSpaces)
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
	step("two MmapFiles", 1)
	if _, held := registrations(f, a); held != 8 {
		t.Fatalf("two 4-page mappings hold %d registrations, want 8", held)
	}

	// A partial unmap keeps the registrations of what stays mapped.
	if err := a.Munmap(0, va1, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	step("partial unmap", 1)
	if _, held := registrations(f, a); held != 7 {
		t.Fatalf("after a one-page unmap, %d registrations, want 7", held)
	}

	// Unmapping the first mapping in full keeps the space registered for
	// the surviving second mapping.
	if err := a.Munmap(0, va1, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	step("first mapping unmapped", 1)

	// Unmapping the last mapping ends the registration and the id.
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
// file must keep the space as a mapper while the pages live on at the
// new address.
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
	if spaces, held := registrations(f, a); spaces != 1 || held != 4 {
		t.Fatalf("after the move: %d file mappers, %d registrations, want 1 and 4", spaces, held)
	}
	checkRegistrations(t, m.Phys, []*mem.File{f}, a)
	if b, err := a.Load(0, nva); err != nil || b != 7 {
		t.Fatalf("moved page reads %d, %v", b, err)
	}
	if again, _ := a.Mmap(0, size, arch.PermRW, 0); again != va {
		t.Fatalf("old range %#x not recycled: got %#x", va, again)
	}
	// The registrations moved with the words and the page, so the old
	// range's next tenant leaving does not end them — nor the object id
	// the moved, not yet faulted pages name their file by.
	if err := a.Munmap(0, va, size); err != nil {
		t.Fatal(err)
	}
	if spaces, _ := registrations(f, a); spaces != 1 || f.ID() == 0 {
		t.Fatalf("after the old range's next tenant left: %d file mappers, file id %d", spaces, f.ID())
	}
	if err := a.Store(0, nva+arch.PageSize, 8); err != nil {
		t.Fatalf("fault on a moved, never-touched file page: %v", err)
	}

	// A move of part of a mapping takes its part of the registrations;
	// unmapping where the whole mapping used to be leaves the moved part
	// mapped, registered and reading its own file pages.
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

// TestMarkedWordHoldsItsFile: a status word that names a file is one
// registration of it, and so is a PTE that maps one of its page-cache
// frames. Either alone keeps the file's object id after the mapping that
// gave it one is unmapped, so the next file cannot take the id, and the
// word — or the page, once dropped back to a word — still reaches the
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
				if n := liveFileIDs(m.Phys); n != 0 {
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
// MADV_DONTNEED, loads, copy-on-write-breaking stores, and Tx.Mark and
// Tx.Map of file pages, on both protocols. After every op it recounts
// each (file, space) pair from the trees, which must equal the
// registration count, and a file must hold an id iff something registers
// it. The 1 024-page mappings put file words at level 2, so faults and
// partial unmaps push them down, and whole-mapping unmaps sweep leaf
// tables of page-cache frames.
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

			// The one behaviour change: a private mapping whose every page
			// has been COW-broken names its file nowhere, so it no longer
			// holds it.
			va, err := a.MmapFile(0, files[0], 0, 2*pg, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := arch.Vaddr(0); i < 2; i++ {
				if err := a.Store(0, va+i*pg, 1); err != nil {
					t.Fatal(err)
				}
			}
			if spaces, _ := registrations(files[0], a); spaces != 0 || files[0].ID() != 0 {
				t.Errorf("a fully COW-broken private mapping keeps its file: %d mappers, id %d", spaces, files[0].ID())
			}
			if err := a.Munmap(0, va, 2*pg); err != nil {
				t.Fatal(err)
			}

			type region struct {
				a     *AddrSpace
				va    arch.Vaddr
				pages uint64
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
				op := rng.Intn(13)
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
					n, f, sp := size(), file(), spaces[rng.Intn(len(spaces))]
					var va arch.Vaddr
					if va, err = sp.MmapFile(0, f, rng.Uint64()%(filePages-n+1), n*pg, arch.PermRW, rng.Intn(2) == 0); err == nil {
						regions = append(regions, region{sp, va, n})
					}
				case 1:
					name = "MmapSharedAnon"
					n, sp := size(), spaces[rng.Intn(len(spaces))]
					var va arch.Vaddr
					if va, err = sp.MmapSharedAnon(0, n*pg, arch.PermRW); err == nil {
						regions = append(regions, region{sp, va, n})
					}
				case 2:
					name = "Mmap"
					n, sp := size(), spaces[rng.Intn(len(spaces))]
					var va arch.Vaddr
					if va, err = sp.Mmap(0, n*pg, arch.PermRW, 0); err == nil {
						regions = append(regions, region{sp, va, n})
					}
				case 3:
					name = "Munmap"
					s, e := sub(r.pages)
					if err = r.a.Munmap(0, at(s), (e-s)*pg); err == nil {
						regions = slices.Delete(regions, i, i+1)
						if s > 0 {
							regions = append(regions, region{r.a, r.va, s})
						}
						if e < r.pages {
							regions = append(regions, region{r.a, at(e), r.pages - e})
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
						regions[i] = region{r.a, va, n}
					}
				case 5:
					name = "Fork"
					if len(spaces) == 1 {
						var child mm.MM
						if child, err = a.Fork(0); err == nil {
							spaces = append(spaces, child.(*AddrSpace))
							for _, r := range regions {
								regions = append(regions, region{spaces[1], r.va, r.pages})
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
					t.Fatalf("step %d: %s broke the registrations", step, name)
				}
			}
			for _, sp := range spaces {
				checkQuiet(t, sp)
			}
			for i := len(spaces) - 1; i >= 0; i-- {
				spaces[i].Destroy(0)
			}
			if n := liveFileIDs(m.Phys); n != 0 {
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
			b, err := New(Options{Machine: m, Protocol: p, SwapDev: mem.NewBlockDev("swap")})
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
			d.Register(b)

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
// registration for exactly the words and pages still mapped — a cut in
// the middle leaves both ends — and gives back its last registration and
// its object id with the last piece; so shared mappings unmapped a page
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
				spaces, held := registrations(f, a)
				return fmt.Sprintf("file id %d, %d mappers, %d registrations", f.ID(), spaces, held)
			}
			t.Run("split unmap", func(t *testing.T) {
				va, err := a.MmapFile(0, f, 0, 4*pg, arch.PermRW, true)
				if err != nil {
					t.Fatal(err)
				}
				munmap(va, 2)
				munmap(va+2*pg, 2)
				if got := left(); got != "file id 0, 0 mappers, 0 registrations" {
					t.Errorf("halves unmapped: %s", got)
				}
				if va, err = a.MmapFile(0, f, 0, 4*pg, arch.PermRW, true); err != nil {
					t.Fatal(err)
				}
				if err := a.Store(0, va+3*pg, 3); err != nil { // page 3 mapped, not a word
					t.Fatal(err)
				}
				munmap(va+pg, 2)
				if got := left(); got != fmt.Sprintf("file id %d, 1 mappers, 2 registrations", f.ID()) || f.ID() == 0 {
					t.Errorf("middle cut: %s", got)
				}
				checkRegistrations(t, m.Phys, []*mem.File{f}, a)
				munmap(va, 1)
				if f.ID() == 0 {
					t.Error("the file lost its id while page 3 is still mapped")
				}
				munmap(va+3*pg, 1)
				if got := left(); got != "file id 0, 0 mappers, 0 registrations" {
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
				if n := liveFileIDs(m.Phys); n != 0 {
					t.Errorf("%d file ids live after page-by-page unmaps", n)
				}
			})
			checkQuiet(t, a)
		})
	}
}
