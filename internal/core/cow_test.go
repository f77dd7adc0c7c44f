package core

import (
	"errors"
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func TestForkCOWSemantics(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
			if err := a.Store(0, va, 1); err != nil {
				t.Fatal(err)
			}
			framesBefore := m.Phys.KindFrames(mem.KindAnon)

			childMM, err := a.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			child := childMM.(*AddrSpace)
			// Fork itself copies no data pages.
			if got := m.Phys.KindFrames(mem.KindAnon); got != framesBefore {
				t.Errorf("fork allocated %d data frames", got-framesBefore)
			}
			// Child sees parent's data.
			b, err := child.Load(1, va)
			if err != nil || b != 1 {
				t.Fatalf("child read = %d, %v", b, err)
			}
			// Child write breaks COW: private copy.
			if err := child.Store(1, va, 2); err != nil {
				t.Fatal(err)
			}
			if got := m.Phys.KindFrames(mem.KindAnon); got != framesBefore+1 {
				t.Errorf("COW break allocated %d frames, want 1", got-framesBefore)
			}
			// Parent still sees its own value; write fault in parent now
			// finds mapcount 1 and reuses the page without copying.
			pb, _ := a.Load(0, va)
			if pb != 1 {
				t.Errorf("parent sees %d after child write, want 1", pb)
			}
			if err := a.Store(0, va, 3); err != nil {
				t.Fatal(err)
			}
			if got := m.Phys.KindFrames(mem.KindAnon); got != framesBefore+1 {
				t.Errorf("mapcount-1 write copied anyway (%d frames)", got-framesBefore)
			}
			cb, _ := child.Load(1, va)
			if cb != 2 {
				t.Errorf("child sees %d after parent write, want 2", cb)
			}
			if a.stats.COWBreaks.Load() == 0 || child.stats.COWBreaks.Load() == 0 {
				t.Error("COW break counters not incremented")
			}
			checkWF(t, a)
			checkWF(t, child)
			child.Destroy(1)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestForkUnfaultedRegions(t *testing.T) {
	// Virtually allocated (never touched) regions must survive fork: the
	// metadata arrays are copied.
	a, m := newSpace(t, ProtocolAdv)
	va, _ := a.Mmap(0, 64*arch.PageSize, arch.PermRW, 0)
	childMM, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := childMM.(*AddrSpace)
	if err := child.Store(1, va+17*arch.PageSize, 9); err != nil {
		t.Fatalf("child fault on inherited virtual region: %v", err)
	}
	// The child's new page is private: parent must not see it.
	if err := a.Touch(0, va+17*arch.PageSize, pt.AccessRead); err != nil {
		t.Fatal(err)
	}
	pb, _ := a.Load(0, va+17*arch.PageSize)
	if pb != 0 {
		t.Errorf("parent sees child's private write: %d", pb)
	}
	child.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

func TestForkChain(t *testing.T) {
	// Grandchild forks: COW chains across generations.
	a, m := newSpace(t, ProtocolRW)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	a.Store(0, va, 10)
	c1MM, _ := a.Fork(0)
	c1 := c1MM.(*AddrSpace)
	c2MM, _ := c1.Fork(1)
	c2 := c2MM.(*AddrSpace)
	c2.Store(2, va, 30)
	c1.Store(1, va, 20)
	a.Store(0, va, 11)
	for _, tc := range []struct {
		name string
		s    *AddrSpace
		core int
		want byte
	}{{"parent", a, 0, 11}, {"child", c1, 1, 20}, {"grandchild", c2, 2, 30}} {
		got, err := tc.s.Load(tc.core, va)
		if err != nil || got != tc.want {
			t.Errorf("%s reads %d (%v), want %d", tc.name, got, err, tc.want)
		}
	}
	c2.Destroy(2)
	c1.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

func TestForkROPagesShared(t *testing.T) {
	// Read-only private pages need no COW bit and are never copied.
	a, m := newSpace(t, ProtocolAdv)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRead, 0)
	a.Touch(0, va, pt.AccessRead)
	frames := m.Phys.KindFrames(mem.KindAnon)
	childMM, _ := a.Fork(0)
	child := childMM.(*AddrSpace)
	child.Touch(1, va, pt.AccessRead)
	if got := m.Phys.KindFrames(mem.KindAnon); got != frames {
		t.Errorf("RO page copied on fork (%d new frames)", got-frames)
	}
	if err := child.Touch(1, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("write to RO inherited page: %v", err)
	}
	child.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

func TestSharedAnonAcrossFork(t *testing.T) {
	// Shared anonymous memory: writes are visible across the fork.
	a, m := newSpace(t, ProtocolAdv)
	va, err := a.MmapSharedAnon(0, 2*arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	a.Store(0, va, 5)
	childMM, _ := a.Fork(0)
	child := childMM.(*AddrSpace)
	b, err := child.Load(1, va)
	if err != nil || b != 5 {
		t.Fatalf("child shared read = %d, %v", b, err)
	}
	if err := child.Store(1, va, 6); err != nil {
		t.Fatal(err)
	}
	pb, _ := a.Load(0, va)
	if pb != 6 {
		t.Errorf("parent missed shared write: %d", pb)
	}
	child.Destroy(1)
	a.Destroy(0)
	m.Quiesce()
	if n := m.Phys.KindFrames(mem.KindAnon); n != 0 {
		t.Errorf("leaked %d anon frames", n)
	}
	// Shared-anon pages live in an internal file's page cache; they are
	// intentionally retained by the file object, not leaked by the MM.
}

func TestFileMappingPrivateVsShared(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	f := mem.NewFile(m.Phys, "data", 8*arch.PageSize)

	shared, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	private, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, false)
	if err != nil {
		t.Fatal(err)
	}
	// Write via shared: lands in the page cache.
	if err := a.Store(0, shared+100, 0xAA); err != nil {
		t.Fatal(err)
	}
	// Private read sees the shared write (same cache page pre-COW).
	b, err := a.Load(0, private+100)
	if err != nil || b != 0xAA {
		t.Fatalf("private read = %#x, %v", b, err)
	}
	// Private write copies; the cache page is untouched afterwards.
	if err := a.Store(0, private+100, 0xBB); err != nil {
		t.Fatal(err)
	}
	sb, _ := a.Load(0, shared+100)
	if sb != 0xAA {
		t.Errorf("private write leaked to shared mapping: %#x", sb)
	}
	pb, _ := a.Load(0, private+100)
	if pb != 0xBB {
		t.Errorf("private write lost: %#x", pb)
	}
	checkWF(t, a)
	a.Destroy(0)
	m.Quiesce()
	if n := m.Phys.KindFrames(mem.KindAnon); n != 0 {
		t.Errorf("leaked %d anon frames", n)
	}
}

func TestFileOffsetSliding(t *testing.T) {
	// A mapping at pgoff 2 must fault in the right file pages, including
	// after the upper-level status is split.
	a, m := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "lib", 16*arch.PageSize)
	// Pre-write file pages via a shared scratch mapping.
	scratch, _ := a.MmapFile(0, f, 0, 16*arch.PageSize, arch.PermRW, true)
	for i := 0; i < 16; i++ {
		if err := a.Store(0, scratch+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	va, _ := a.MmapFile(0, f, 2, 8*arch.PageSize, arch.PermRead, false)
	for i := 0; i < 8; i++ {
		b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if b != byte(i+2) {
			t.Errorf("page %d reads file page %d, want %d", i, b, i+2)
		}
	}
}

// TestRMapUnmapReclaim: reverse mapping of a file page needs no record
// beside the page tables — each space finds the page's mappings in its
// own tree: in a forked child, and at the address a growing Mremap moved
// a mapping to. MADV_DONTNEED there re-marks each mapping with its file
// origin, the page then leaves the page cache, and every mapping faults
// the file page back in and reads its bytes.
func TestRMapUnmapReclaim(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "cache", 4*arch.PageSize)
	va, _ := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRead, false)
	if err := a.Touch(0, va, pt.AccessRead); err != nil {
		t.Fatal(err)
	}
	if f.NPages() != 1 {
		t.Fatalf("page cache pages = %d", f.NPages())
	}
	sva, _ := a.MmapFile(0, f, 0, 2*arch.PageSize, arch.PermRW, true)
	if err := a.Store(0, sva, 9); err != nil {
		t.Fatal(err)
	}
	moved, err := a.Mremap(0, sva, 2*arch.PageSize, 4*arch.PageSize)
	if err != nil || moved == sva {
		t.Fatalf("grow = %#x, %v", moved, err)
	}
	forked, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := forked.(*AddrSpace)
	defer child.Destroy(1)
	mappings := []struct {
		a  *AddrSpace
		va arch.Vaddr
	}{{a, va}, {a, moved}, {child, va}, {child, moved}}

	// Reclaim file page 0 everywhere: each space unmaps it in its own
	// tree, then the page cache lets it go.
	for _, mp := range mappings {
		if err := mp.a.MadviseDontNeed(0, mp.va, arch.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	f.DropPage(0, 0)
	m.Quiesce()
	if f.NPages() != 0 {
		t.Error("page not evicted from cache")
	}
	for _, mp := range mappings {
		c, err := mp.a.Lock(0, mp.va, mp.va+arch.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Query(mp.va)
		c.Close()
		if err != nil || st.Kind == pt.StatusMapped || st.File(m.Phys) != f || st.Off() != 0 {
			t.Errorf("%#x still holds %+v, %v after the page was reclaimed", mp.va, st, err)
		}
	}
	checkRegistrations(t, m.Phys, []*mem.File{f}, a, child)
	// Every access faults it back in transparently: a store through the
	// shared mapping reads back through all four.
	faults := a.stats.PageFaults.Load()
	if err := a.Store(0, moved, 5); err != nil {
		t.Errorf("re-fault after reclaim: %v", err)
	}
	if a.stats.PageFaults.Load() == faults {
		t.Error("reclaim did not force a second fault")
	}
	for _, mp := range mappings {
		if b, err := mp.a.Load(1, mp.va); err != nil || b != 5 {
			t.Errorf("%#x: re-fault after reclaim reads %d, %v; want the file page's 5", mp.va, b, err)
		}
	}
	checkRegistrations(t, m.Phys, []*mem.File{f}, a, child)
}

func TestMsyncWriteback(t *testing.T) {
	a, m := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "out", 4*arch.PageSize)
	va, _ := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	a.Store(0, va, 1)
	a.Store(0, va+2*arch.PageSize, 1)
	a.Touch(0, va+arch.PageSize, pt.AccessRead) // clean page
	if err := a.Msync(0, va, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := f.WritebackCount(); got != 3 {
		// All three resident shared pages are written back (our msync
		// does not filter by dirty bit granularity beyond residency).
		t.Logf("writebacks = %d", got)
	}
	if f.WritebackCount() == 0 {
		t.Error("msync wrote nothing back")
	}
}

func TestSwapOutIn(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := newMachine()
			dev := m.Phys.Swap()
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
			for i := 0; i < 8; i++ {
				a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x40+i))
			}
			n, err := a.SwapOut(0, va, 8*arch.PageSize)
			if err != nil || n != 8 {
				t.Fatalf("swapped %d, %v", n, err)
			}
			m.Quiesce()
			if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
				t.Errorf("%d frames resident after swap-out", got)
			}
			if dev.InUse() != 8 {
				t.Errorf("swap blocks in use = %d", dev.InUse())
			}
			checkWF(t, a)
			// Access swaps back in with data intact.
			for i := 0; i < 8; i++ {
				b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize))
				if err != nil || b != byte(0x40+i) {
					t.Fatalf("page %d after swap-in = %#x, %v", i, b, err)
				}
			}
			if dev.InUse() != 0 {
				t.Errorf("swap blocks leaked: %d", dev.InUse())
			}
			if a.stats.SwapIns.Load() != 8 || a.stats.SwapOuts.Load() != 8 {
				t.Errorf("swap stats: in=%d out=%d", a.stats.SwapIns.Load(), a.stats.SwapOuts.Load())
			}
			// Munmap of swapped pages releases their blocks.
			a.SwapOut(0, va, 8*arch.PageSize)
			a.Munmap(0, va, 8*arch.PageSize)
			if dev.InUse() != 0 {
				t.Errorf("munmap leaked %d swap blocks", dev.InUse())
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestSwapSkipsSharedAndCOW(t *testing.T) {
	m := newMachine()
	a, _ := New(Options{Machine: m, Protocol: ProtocolAdv})
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	a.Store(0, va, 1)
	childMM, _ := a.Fork(0) // page is now COW-shared
	n, err := a.SwapOut(0, va, arch.PageSize)
	if err != nil || n != 0 {
		t.Errorf("swapped %d COW pages, %v; want 0", n, err)
	}
	childMM.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

// TestForkCopiesSwappedPages: a fork shares each swapped page's block —
// the child's copied word takes its own reference — and each side swaps
// in its own private copy; the last word to go frees the block. Before,
// Fork refused a space with a page swapped out.
func TestForkCopiesSwappedPages(t *testing.T) {
	const pages = 4
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			dev := m.Phys.Swap()
			va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			at := func(i int) arch.Vaddr { return va + arch.Vaddr(i*arch.PageSize) }
			for i := 0; i < pages; i++ {
				if err := a.Store(0, at(i), byte(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := a.SwapOut(0, va, pages*arch.PageSize); err != nil || n != pages {
				t.Fatalf("SwapOut = %d, %v; want %d", n, err, pages)
			}
			forked, err := a.Fork(0)
			if err != nil {
				t.Fatalf("Fork over %d swapped pages: %v", pages, err)
			}
			child := forked.(*AddrSpace)
			inUse := func(when string, want int) {
				t.Helper()
				if n := dev.InUse(); n != want {
					t.Errorf("%s: %d swap blocks in use, want %d", when, n, want)
				}
			}
			load := func(who string, s *AddrSpace, i int, want byte) {
				t.Helper()
				if b, err := s.Load(0, at(i)); err != nil || b != want {
					t.Errorf("%s page %d reads %d, %v; want %d", who, i, b, err, want)
				}
			}
			inUse("after the fork", pages)
			// The child's store swaps page 0 in as its own copy; the
			// parent still names every block.
			if err := child.Store(0, at(0), 99); err != nil {
				t.Fatal(err)
			}
			inUse("after the child's store", pages)
			for i := 0; i < 3; i++ {
				load("parent", a, i, byte(10+i))
			}
			inUse("after the parent's swap-ins", pages-1) // block 0 had no other word
			load("child", child, 0, 99)
			load("child", child, 1, 11)
			load("child", child, 3, 13)
			inUse("after the child's swap-ins", 2) // block 2 the child's, block 3 the parent's
			checkQuiet(t, child)
			checkQuiet(t, a)
			child.Destroy(0)
			inUse("after the child's teardown", 1)
			a.Destroy(0)
			inUse("after both teardowns", 0)
			checkClean(t, m)
		})
	}
}

// TestForkedSwapInsRace: a parent and its fork child swap in the blocks
// they share on two cores at once; each reads its own bytes, and the
// last reference to go frees each block.
func TestForkedSwapInsRace(t *testing.T) {
	const pages = 16
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			dev := m.Phys.Swap()
			va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := a.SwapOut(0, va, pages*arch.PageSize); err != nil || n != pages {
				t.Fatalf("SwapOut = %d, %v; want %d", n, err, pages)
			}
			forked, err := a.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			child := forked.(*AddrSpace)
			var wg sync.WaitGroup
			for core, s := range []*AddrSpace{a, child} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < pages; i++ {
						if b, err := s.Load(core, va+arch.Vaddr(i*arch.PageSize)); err != nil || b != byte(i+1) {
							t.Errorf("core %d: page %d reads %d, %v; want %d", core, i, b, err, i+1)
						}
					}
				}()
			}
			wg.Wait()
			if n := dev.InUse(); n != 0 {
				t.Errorf("%d swap blocks in use after both sides swapped in", n)
			}
			child.Destroy(0)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestOneSwapDevicePerMachine: every space swaps to its machine's one
// device with no setup of its own. Two spaces and a fork child each swap
// a range out and back in; the device holds exactly the blocks their
// words name, and teardown leaves it empty.
func TestOneSwapDevicePerMachine(t *testing.T) {
	const pages = 4
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := newMachine()
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := a.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			child := forked.(*AddrSpace)
			vb, err := b.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			spaces := []*AddrSpace{a, b, child}
			bases := []arch.Vaddr{va, vb, va}
			// Each space writes its own bytes — a private page, so not
			// skipped as COW — and swaps them out.
			for k, s := range spaces {
				for i := 0; i < pages; i++ {
					if err := s.Store(0, bases[k]+arch.Vaddr(i*arch.PageSize), byte(16*k+i)); err != nil {
						t.Fatal(err)
					}
				}
				if n, err := s.SwapOut(0, bases[k], pages*arch.PageSize); err != nil || n != pages {
					t.Fatalf("space %d: SwapOut = %d, %v; want %d", k, n, err, pages)
				}
			}
			if n := m.Phys.Swap().InUse(); n != len(spaces)*pages {
				t.Errorf("%d swap blocks in use, want %d", n, len(spaces)*pages)
			}
			checkRegistrations(t, m.Phys, nil, spaces...)
			for k, s := range spaces {
				for i := 0; i < pages; i++ {
					if got, err := s.Load(0, bases[k]+arch.Vaddr(i*arch.PageSize)); err != nil || got != byte(16*k+i) {
						t.Errorf("space %d page %d reads %d, %v; want %d", k, i, got, err, 16*k+i)
					}
				}
			}
			if n := m.Phys.Swap().InUse(); n != 0 {
				t.Errorf("%d swap blocks in use after every page swapped in", n)
			}
			checkRegistrations(t, m.Phys, nil, spaces...)
			// Teardown gives back the blocks of pages still swapped out.
			for k, s := range spaces {
				if _, err := s.SwapOut(0, bases[k], pages*arch.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range spaces {
				s.Destroy(0)
			}
			if n := m.Phys.Swap().InUse(); n != 0 {
				t.Errorf("%d swap blocks in use after teardown", n)
			}
			checkClean(t, m)
		})
	}
}

// TestForkKeepsCoarseLocking: a fork child locks as its parent does, so
// under CoarseLocking a one-page transaction covers at the root in both.
func TestForkKeepsCoarseLocking(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := newMachine()
			a, err := New(Options{Machine: m, Protocol: p, CoarseLocking: true})
			if err != nil {
				t.Fatal(err)
			}
			va, err := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, va, 1); err != nil {
				t.Fatal(err)
			}
			forked, err := a.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			child := forked.(*AddrSpace)
			for who, s := range map[string]*AddrSpace{"parent": a, "child": child} {
				c, err := s.Lock(0, va, va+arch.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				level := c.rootLevel
				c.Close()
				if level != arch.Levels {
					t.Errorf("%s: a one-page Lock covers at level %d, want the root's %d", who, level, arch.Levels)
				}
			}
			child.Destroy(0)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestMPKTagging(t *testing.T) {
	// MPK is a per-ISA feature: keys survive mapping and query (§6.7).
	m := newMachine()
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, ISA: arch.X8664(true)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Destroy(0)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	frame, _ := m.Phys.AllocFrame(0, mem.KindAnon)
	c, _ := a.Lock(0, va, va+arch.PageSize)
	if err := c.MapKeyed(va, frame, 1, arch.PermRW, 7); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Query(va)
	c.Close()
	if st.Key() != 7 {
		t.Errorf("protection key = %d, want 7", st.Key())
	}
}
