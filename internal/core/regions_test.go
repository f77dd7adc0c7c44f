package core

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

// checkChunksMatchRegions: the enumeration the sweeps read and the
// /proc/maps view are two derivations from one page table; they must
// agree on how many pages are allocated and on where they are.
func checkChunksMatchRegions(t *testing.T, a *AddrSpace) {
	t.Helper()
	regions, err := a.Regions(0)
	if err != nil {
		t.Fatal(err)
	}
	chunks := a.chunks(0)
	var want uint64
	for _, r := range regions {
		want += r.Size() / arch.PageSize
		for va := r.Start; va < r.End; {
			i := sort.Search(len(chunks), func(i int) bool { return chunks[i].base+arch.Vaddr(chunks[i].span) > va })
			if i == len(chunks) || chunks[i].base > va {
				t.Fatalf("region page %#x lies in no chunk", va)
			}
			va = chunks[i].base + arch.Vaddr(chunks[i].span)
		}
	}
	if got := a.allocatedPages(0); got != want {
		t.Fatalf("enumeration counts %d allocated pages, regions %d", got, want)
	}
}

func TestRegionsCoalesce(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	base := arch.Vaddr(0x10000000)
	// One 64-page RW region, partially faulted: must report as ONE
	// region with the right residency.
	if err := a.MmapFixed(0, base, 64*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Store(0, base+arch.Vaddr(i*arch.PageSize), 1)
	}
	// A separate RO region with a gap in between.
	ro := base + 128*arch.PageSize
	if err := a.MmapFixed(0, ro, 16*arch.PageSize, arch.PermRead, 0); err != nil {
		t.Fatal(err)
	}

	regions, err := a.Regions(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		for _, r := range regions {
			t.Logf("  %s", r)
		}
		t.Fatalf("regions = %d, want 2", len(regions))
	}
	r0, r1 := regions[0], regions[1]
	if r0.Start != base || r0.End != base+64*arch.PageSize {
		t.Errorf("region 0 = [%#x,%#x)", r0.Start, r0.End)
	}
	if r0.Resident != 10 {
		t.Errorf("region 0 resident = %d, want 10", r0.Resident)
	}
	if r0.Perm != arch.PermRW || r0.Kind != pt.StatusPrivateAnon {
		t.Errorf("region 0 = %+v", r0)
	}
	if r1.Start != ro || r1.Perm != arch.PermRead {
		t.Errorf("region 1 = %+v", r1)
	}
	checkChunksMatchRegions(t, a)
}

func TestRegionsSplitByProtect(t *testing.T) {
	a, _ := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 32*arch.PageSize, arch.PermRW, 0)
	if err := a.Mprotect(0, va+8*arch.PageSize, 8*arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	regions, err := a.Regions(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("regions after mprotect split = %d, want 3", len(regions))
	}
	if regions[1].Perm != arch.PermRead || regions[1].Size() != 8*arch.PageSize {
		t.Errorf("middle region = %+v", regions[1])
	}
	checkChunksMatchRegions(t, a)
}

func TestRegionsSwappedStaysOneRegion(t *testing.T) {
	m := newMachine()
	a, _ := New(Options{Machine: m, Protocol: ProtocolAdv})
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 8; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), 1)
	}
	if _, err := a.SwapOut(0, va+2*arch.PageSize, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	regions, _ := a.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("swap fragmenting regions: %d", len(regions))
	}
	if regions[0].Resident != 6 {
		t.Errorf("resident = %d, want 6", regions[0].Resident)
	}
	checkChunksMatchRegions(t, a)
}

func TestRegionsFileVsAnonSeparate(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "lib.so", 8*arch.PageSize)
	fva, _ := a.MmapFile(0, f, 0, 8*arch.PageSize, arch.PermRead, false)
	a.Touch(0, fva, pt.AccessRead)
	regions, _ := a.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("regions = %d", len(regions))
	}
	if regions[0].Kind != pt.StatusPrivateFile {
		t.Errorf("file region kind = %v", regions[0].Kind)
	}
	checkChunksMatchRegions(t, a)
}

func TestDumpLayout(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	a.MmapFixed(0, 0x10000000, 4*arch.PageSize, arch.PermRWX|arch.PermUser, 0)
	var buf bytes.Buffer
	if err := a.DumpLayout(0, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "000010000000-000010004000") || !strings.Contains(out, "rwxu") {
		t.Errorf("layout dump:\n%s", out)
	}
}

func TestCheckInvariantsPublic(t *testing.T) {
	a, _ := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	a.Store(0, va, 1)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionsKeepCOWBrokenFilePage: a private file mapping stays one
// region after a copy-on-write break, as /proc/maps shows one VMA: the
// copy's origin word names the file, so its page is classified by the
// page table, not by its (anonymous) frame. Regions used to split the
// mapping into three.
func TestRegionsKeepCOWBrokenFilePage(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			f := mem.NewFile(m.Phys, "f", 3*arch.PageSize)
			va, err := a.MmapFile(0, f, 0, 3*arch.PageSize, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Load(0, va); err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, va+arch.PageSize, 9); err != nil {
				t.Fatal(err)
			}
			regions, err := a.Regions(0)
			if err != nil {
				t.Fatal(err)
			}
			want := Region{Start: va, End: va + 3*arch.PageSize, Kind: pt.StatusPrivateFile, Perm: arch.PermRW, Resident: 2}
			if len(regions) != 1 || regions[0] != want {
				t.Errorf("regions = %v, want [%v]", regions, want)
			}
			checkChunksMatchRegions(t, a)
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestFilePagesCountOnce: a resident file page has a PTE and an origin
// word beside it, and is one allocated page, not two — to a munmap
// deciding whether its range was fully allocated (so its VAs go back to
// the allocator), to OOM sizing (allocatedPages) and to the chunk list
// the sweeps read.
func TestFilePagesCountOnce(t *testing.T) {
	const pg = arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			f := mem.NewFile(m.Phys, "f", 4<<20)

			// A fully resident mapping: page-cache leaves and private
			// copies, all with words. Its munmap clears 4 pages and
			// recycles the range.
			va, err := a.MmapFile(0, f, 0, 4*pg, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := arch.Vaddr(0); i < 4; i++ {
				if i%2 == 0 {
					_, err = a.Load(0, va+i*pg)
				} else {
					err = a.Store(0, va+i*pg, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			checkChunksMatchRegions(t, a)
			if err := a.Munmap(0, va, 4*pg); err != nil {
				t.Fatal(err)
			}
			if again, err := a.Mmap(0, 4*pg, arch.PermRW, 0); err != nil || again != va {
				t.Errorf("the unmapped range %#x was not recycled: Mmap = %#x, %v", va, again, err)
			} else if err := a.Munmap(0, again, 4*pg); err != nil {
				t.Fatal(err)
			}

			// 3 resident and 5 marked pages are 8 allocated pages.
			va, err = a.MmapFile(0, f, 0, 8*pg, arch.PermRW, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := arch.Vaddr(0); i < 3; i++ {
				if err := a.Store(0, va+i*pg, 1); err != nil {
					t.Fatal(err)
				}
			}
			if n := a.allocatedPages(0); n != 8 {
				t.Errorf("3 resident and 5 marked file pages count as %d allocated pages", n)
			}
			checkChunksMatchRegions(t, a)
			if err := a.Munmap(0, va, 8*pg); err != nil {
				t.Fatal(err)
			}

			// A leaf table of 512 private copies is a 512-page chunk.
			span := arch.Vaddr(arch.SpanBytes(2))
			va, err = a.MmapFile(0, f, 0, 4<<20, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			base := (va + span - 1) &^ (span - 1)
			for i := arch.Vaddr(0); i < span; i += pg {
				if err := a.Store(0, base+i, 1); err != nil {
					t.Fatal(err)
				}
			}
			if i := chunkAt(a.chunks(0), base); a.chunks(0)[i] != (chunk{base: base, span: uint64(span), pages: arch.PTEntries, table: true}) {
				t.Errorf("the leaf table of 512 private copies is chunk %+v, want a table of 512 pages", a.chunks(0)[i])
			}
			checkChunksMatchRegions(t, a)
			checkRegistrations(t, m.Phys, []*mem.File{f}, a)
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}
