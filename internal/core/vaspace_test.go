package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// The tests in this file pin the rule that replaced the VA-range side
// tables: the page table is the only record of which ranges exist, an
// unmap recycles its VAs iff it found the whole range allocated, and
// the allocator ignores ranges it never handed out or already holds
// free.

// checkQuiet runs the whole-machine checks every test here ends with.
func checkQuiet(t *testing.T, a *AddrSpace) {
	t.Helper()
	checkWF(t, a)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep := a.m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestAddrSpaceHasNoSideTables fails when AddrSpace grows a map (a VA
// side table) or a mutex (an op-path lock beside the locking protocol):
// which files a space maps is recorded by its page table too.
func TestAddrSpaceHasNoSideTables(t *testing.T) {
	mutexes := 0
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch {
		case ty == reflect.TypeOf(sync.Mutex{}) || ty == reflect.TypeOf(sync.RWMutex{}):
			mutexes++
		case ty.Kind() == reflect.Map:
			t.Errorf("AddrSpace%s is a map: VA-range facts belong in the page table", path)
		case ty.Kind() == reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case ty.Kind() == reflect.Array || ty.Kind() == reflect.Slice:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("", reflect.TypeOf(AddrSpace{}))
	if mutexes != 0 {
		t.Errorf("AddrSpace holds %d mutexes, want none", mutexes)
	}
}

// TestPartialMunmapRecycles: pieces of a mapping unmapped separately
// each go back to the allocator in their own size class, a shrinking
// Mremap returns its cut tail, and the enumeration forgets all of it.
func TestPartialMunmapRecycles(t *testing.T) {
	const half = 2 * arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			mmap := func(size uint64) arch.Vaddr {
				t.Helper()
				va, err := a.Mmap(0, size, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				return va
			}
			munmap := func(va arch.Vaddr, size uint64) {
				t.Helper()
				if err := a.Munmap(0, va, size); err != nil {
					t.Fatal(err)
				}
			}
			va := mmap(2 * half)
			munmap(va, half)
			munmap(va+half, half)
			if n := len(a.chunks(0)); n != 0 {
				t.Fatalf("enumeration still lists %d chunks after both halves went", n)
			}
			got := map[arch.Vaddr]bool{mmap(half): true, mmap(half): true}
			if !got[va] || !got[va+half] {
				t.Fatalf("halves of %#x not recycled: got %v", va, got)
			}
			munmap(va, half)
			munmap(va+half, half)

			whole := mmap(3 * half)
			if nva, err := a.Mremap(0, whole, 3*half, half); err != nil || nva != whole {
				t.Fatalf("shrink = %#x, %v", nva, err)
			}
			if tail := mmap(2 * half); tail != whole+half {
				t.Fatalf("cut tail not recycled: got %#x, want %#x", tail, whole+half)
			}
			if pages := a.allocatedPages(0); pages != 6 {
				t.Fatalf("enumeration counts %d pages, want 6", pages)
			}
			checkQuiet(t, a)
		})
	}
}

// TestMunmapTwiceRecyclesOnce: the second unmap of a range finds nothing
// allocated, so the VA is not freed a second time.
func TestMunmapTwiceRecyclesOnce(t *testing.T) {
	const size = 4 * arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			va, err := a.Mmap(0, size, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := a.Munmap(0, va, size); err != nil {
					t.Fatal(err)
				}
			}
			v1, _ := a.Mmap(0, size, arch.PermRW, 0)
			v2, _ := a.Mmap(0, size, arch.PermRW, 0)
			if v1 != va || v2 == va {
				t.Fatalf("after a double munmap of %#x, mmaps returned %#x and %#x", va, v1, v2)
			}
			checkQuiet(t, a)
		})
	}
}

// TestFixedMappingsNeverRecycled: fixed mappings below UserLo, at the
// arena's (unmoved) bump pointer and beyond it are fully allocated when
// unmapped, yet none of them reaches a free list — the next allocations
// are pure bump allocations.
func TestFixedMappingsNeverRecycled(t *testing.T) {
	const size = 4 * arch.PageSize
	for _, perCore := range []bool{true, false} {
		m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
		a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: perCore})
		if err != nil {
			t.Fatal(err)
		}
		for _, va := range []arch.Vaddr{1 << 30, cpusim.UserLo, cpusim.UserLo + 1<<20} {
			if err := a.MmapFixed(0, va, size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			if err := a.Munmap(0, va, size); err != nil {
				t.Fatal(err)
			}
		}
		v1, _ := a.Mmap(0, size, arch.PermRW, 0)
		v2, _ := a.Mmap(0, size, arch.PermRW, 0)
		if v1 != cpusim.UserLo || v2 != cpusim.UserLo+size {
			t.Errorf("perCore=%v: mmaps returned %#x, %#x; a fixed range was recycled", perCore, v1, v2)
		}
		checkQuiet(t, a)
		a.Destroy(0)
	}
}

// TestFixedOverRecycledVANotFreedTwice: a fixed or Tx-built mapping
// placed over addresses the allocator has already taken back is fully
// allocated when unmapped, and lies inside what the arena handed out —
// only the allocator can tell that those addresses are free already.
// Whatever gets remapped over them, no VA is handed out twice.
func TestFixedOverRecycledVANotFreedTwice(t *testing.T) {
	const size = 4 * arch.PageSize
	const half = size / 2
	fixed := func(a *AddrSpace, va arch.Vaddr, size uint64) error {
		return a.MmapFixed(0, va, size, arch.PermRW, 0)
	}
	viaTx := func(a *AddrSpace, va arch.Vaddr, size uint64) error {
		tx, err := a.Lock(0, va, va+arch.Vaddr(size))
		if err != nil {
			return err
		}
		defer tx.Close()
		return tx.Mark(va, va+arch.Vaddr(size), pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW})
	}
	for _, tc := range []struct {
		name string
		// hole and holeSize pick the piece of a 4-page mapping at va that
		// is unmapped first; [lo, lo+n) is then mapped by remap and
		// unmapped again.
		hole, holeSize uint64
		lo, n          uint64
		remap          func(*AddrSpace, arch.Vaddr, uint64) error
	}{
		{"whole range, MmapFixed", 0, size, 0, size, fixed},
		{"whole range, Tx.Mark", 0, size, 0, size, viaTx},
		{"partial-unmap hole, MmapFixed", arch.PageSize, half, arch.PageSize, half, fixed},
		{"inside the freed range", 0, size, arch.PageSize, half, fixed},
	} {
		for _, p := range protocols {
			t.Run(tc.name+"/"+p.String(), func(t *testing.T) {
				a, _ := newSpace(t, p)
				defer a.Destroy(0)
				va, err := a.Mmap(0, size, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				steps := []error{
					a.Munmap(0, va+arch.Vaddr(tc.hole), tc.holeSize),
					tc.remap(a, va+arch.Vaddr(tc.lo), tc.n),
					a.Munmap(0, va+arch.Vaddr(tc.lo), tc.n),
					a.Munmap(0, va, size), // whatever is left of the original
				}
				for i, err := range steps {
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				// Every address may now be handed out once: allocations
				// of each size that was in play never overlap.
				type span struct{ lo, hi arch.Vaddr }
				var live []span
				for _, sz := range []uint64{tc.holeSize, tc.n, size, tc.holeSize, tc.n, size} {
					v, err := a.Mmap(0, sz, arch.PermRW, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range live {
						if v < o.hi && o.lo < v+arch.Vaddr(sz) {
							t.Fatalf("Mmap(%d) returned %#x, overlapping live [%#x, %#x)", sz, v, o.lo, o.hi)
						}
					}
					live = append(live, span{v, v + arch.Vaddr(sz)})
				}
				checkQuiet(t, a)
			})
		}
	}
}

// TestMmapZeroSize: a zero size is rejected with ErrBadRange, and a size
// whose page rounding wraps with cpusim.ErrVAExhausted (cpusim.PageLength),
// before a VA, a file reference or a ring slot is spent.
func TestMmapZeroSize(t *testing.T) {
	calls := map[string]func(a *AddrSpace, f *mem.File) error{
		"Mmap": func(a *AddrSpace, _ *mem.File) error {
			_, err := a.Mmap(0, 0, arch.PermRW, 0)
			return err
		},
		"MmapFile": func(a *AddrSpace, f *mem.File) error {
			_, err := a.MmapFile(0, f, 0, 0, arch.PermRW, true)
			return err
		},
		"MmapSharedAnon": func(a *AddrSpace, _ *mem.File) error {
			_, err := a.MmapSharedAnon(0, 0, arch.PermRW)
			return err
		},
		"Batch.Mmap": func(a *AddrSpace, _ *mem.File) error {
			b := a.NewBatch(0)
			_, err := b.Mmap(0, arch.PermRW, 0)
			if b.Pending() != 0 {
				return errors.New("zero-size op was enqueued")
			}
			return err
		},
		"Mmap(overflow)": func(a *AddrSpace, _ *mem.File) error {
			_, err := a.Mmap(0, ^uint64(0), arch.PermRW, 0)
			return err
		},
	}
	for _, p := range protocols {
		for name, call := range calls {
			t.Run(p.String()+"/"+name, func(t *testing.T) {
				a, m := newSpace(t, p)
				defer a.Destroy(0)
				f := mem.NewFile(m.Phys, "f", 4*arch.PageSize)
				want := mm.ErrBadRange
				if name == "Mmap(overflow)" {
					want = cpusim.ErrVAExhausted
				}
				if err := call(a, f); !errors.Is(err, want) {
					t.Fatalf("err = %v, want %v", err, want)
				}
				if f.Refs() != 0 || f.ID() != 0 {
					t.Errorf("failed call left %d file reference(s), file id %d", f.Refs(), f.ID())
				}
				if va, err := a.Mmap(0, arch.PageSize, arch.PermRW, 0); err != nil || va != cpusim.UserLo {
					t.Errorf("next mmap = %#x, %v; want the arena's first address", va, err)
				}
				checkQuiet(t, a)
			})
		}
	}
}

// TestTxMappingsAreSwept: a region built only through the transactional
// interface (Lock + Mark + Map) never passed a syscall, and is still
// seen by OOM sizing and reclaimed — and its data survives the swap.
func TestTxMappingsAreSwept(t *testing.T) {
	const (
		base  = arch.Vaddr(0x3000_0000)
		pages = 32
	)
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 10})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Destroy(0)
			d := AttachReclaim(m, ReclaimConfig{})

			c, err := a.Lock(0, base, base+pages*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			err = c.Mark(base, base+pages*arch.PageSize, pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW})
			for i := 0; i < pages/2 && err == nil; i++ { // half resident, half marked
				var frame arch.PFN
				if frame, err = m.Phys.AllocFrame(0, mem.KindAnon); err == nil {
					m.Phys.Data(frame)[0] = byte(i + 1)
					err = c.Map(base+arch.Vaddr(i*arch.PageSize), frame, 1, arch.PermRW)
				}
			}
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := a.allocatedPages(0); got != pages {
				t.Fatalf("enumeration counts %d pages, want %d", got, pages)
			}
			if n := d.DirectReclaim(0, pages); n != pages/2 {
				t.Fatalf("reclaimed %d pages, want %d", n, pages/2)
			}
			if got := a.Stats().SwapOuts.Load(); got != pages/2 {
				t.Fatalf("swap-outs = %d, want %d", got, pages/2)
			}
			for i := 0; i < pages/2; i++ {
				if b, err := a.Load(0, base+arch.Vaddr(i*arch.PageSize)); err != nil || b != byte(i+1) {
					t.Fatalf("page %d after swap round trip = %d, %v", i, b, err)
				}
			}
			checkQuiet(t, a)
		})
	}
}

// TestVAChurnNoAliasing: four cores map, partially unmap, remap and
// unmap regions concurrently, each region stamped with its owner's tag.
// Every recycling decision is read from the page table, so a VA handed
// out while another owner still holds it would show up as a foreign or
// zeroed stamp. Runs over both allocators: the global arena moves
// recycled VAs between cores.
func TestVAChurnNoAliasing(t *testing.T) {
	const (
		cores = 4
		steps = 400
	)
	type region struct {
		va    arch.Vaddr
		pages int
		tag   byte
	}
	for _, p := range protocols {
		for _, perCore := range []bool{true, false} {
			name := p.String() + "/global"
			if perCore {
				name = p.String() + "/percore"
			}
			t.Run(name, func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: cores, Frames: 1 << 14})
				a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: perCore})
				if err != nil {
					t.Fatal(err)
				}
				defer a.Destroy(0)
				var failed sync.Once
				fail := func(format string, args ...any) { failed.Do(func() { t.Errorf(format, args...) }) }
				m.Run(cores, func(core int) {
					rng := rand.New(rand.NewSource(int64(core) + 1))
					page := func(r region, i int) arch.Vaddr { return r.va + arch.Vaddr(i*arch.PageSize) }
					stamp := func(r region, from int) {
						for i := from; i < r.pages; i++ {
							if a.Store(core, page(r, i), byte(core)) != nil || a.Store(core, page(r, i)+1, r.tag) != nil {
								fail("core %d: store to own region %#x failed", core, r.va)
							}
						}
					}
					verify := func(r region) {
						for i := 0; i < r.pages; i++ {
							who, err1 := a.Load(core, page(r, i))
							tag, err2 := a.Load(core, page(r, i)+1)
							if err1 != nil || err2 != nil || who != byte(core) || tag != r.tag {
								fail("core %d: region %#x page %d reads owner %d tag %d (%v, %v), want owner %d tag %d",
									core, r.va, i, who, tag, err1, err2, core, r.tag)
							}
						}
					}
					var held []region
					for step := 0; step < steps; step++ {
						k := rng.Intn(len(held) + 1)
						if k == len(held) || len(held) < 4 {
							r := region{pages: 1 + rng.Intn(8), tag: byte(step)}
							va, err := a.Mmap(core, uint64(r.pages)*arch.PageSize, arch.PermRW, 0)
							if err != nil {
								fail("core %d: mmap: %v", core, err)
								return
							}
							r.va = va
							stamp(r, 0)
							held = append(held, r)
							continue
						}
						r := &held[k]
						verify(*r)
						cut := rng.Intn(r.pages) // pages kept by the partial ops below
						var err error
						switch op := rng.Intn(4); {
						case op == 0 && cut > 0: // drop the tail
							err = a.Munmap(core, page(*r, cut), uint64(r.pages-cut)*arch.PageSize)
							r.pages = cut
						case op == 1 && cut > 0: // drop the head
							err = a.Munmap(core, r.va, uint64(r.pages-cut)*arch.PageSize)
							r.va, r.pages = page(*r, r.pages-cut), cut
						case op == 2: // mremap to a new size, growing or shrinking
							n := 1 + rng.Intn(12)
							r.va, err = a.Mremap(core, r.va, uint64(r.pages)*arch.PageSize, uint64(n)*arch.PageSize)
							old := min(r.pages, n)
							r.pages = n
							if err == nil {
								stamp(*r, old)
							}
						default: // unmap it all
							err = a.Munmap(core, r.va, uint64(r.pages)*arch.PageSize)
							held = append(held[:k], held[k+1:]...)
						}
						if err != nil {
							fail("core %d step %d: %v", core, step, err)
							return
						}
					}
					for _, r := range held {
						verify(r)
						if err := a.Munmap(core, r.va, uint64(r.pages)*arch.PageSize); err != nil {
							fail("core %d: final munmap: %v", core, err)
						}
					}
				})
				if n := a.allocatedPages(0); n != 0 {
					t.Errorf("%d pages still allocated after every region was unmapped", n)
				}
				checkQuiet(t, a)
			})
		}
	}
}
