package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
)

// TestCachedPageFollowsFrame: a core whose TLB caches a page's bytes
// keeps reading the page's current frame through every way the frame
// behind a VA changes — migration, a copy-on-write break, a huge leaf
// split and shattered into 512 frames, an unmap and a remap. After each,
// core 0 stores a fresh tag and core 1's next Load returns it, and the
// page core 1's TLB holds is the payload of the frame it names. LATR
// keeps stale translations alive longest, so it is the mode under test.
func TestCachedPageFollowsFrame(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14, TLBMode: tlb.ModeLATR})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			daemonOf(m) // migration needs the machine's daemon
			load := func(core int, va arch.Vaddr) byte {
				t.Helper()
				b, err := a.Load(core, va)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var tag byte
			follow := func(step string, va arch.Vaddr) {
				t.Helper()
				tag++
				if err := a.Store(0, va, tag); err != nil {
					t.Fatal(err)
				}
				if got := load(1, va); got != tag {
					t.Errorf("%s: core 1 loads %d, want %d", step, got, tag)
				}
				tr, ok := m.TLB.Lookup(1, a.asid, va)
				if !ok || tr.Page == nil {
					t.Fatalf("%s: core 1 caches no page for %#x (%+v, %v)", step, va, tr, ok)
				}
				if tr.Page != (*[arch.PageSize]byte)(m.Phys.DataPage(tr.PFN)) {
					t.Errorf("%s: core 1's cached page is not frame %#x's payload", step, tr.PFN)
				}
			}
			pfnOf := func(va arch.Vaddr) arch.PFN {
				t.Helper()
				pte, _, ok := a.tree.Walk(va)
				if !ok {
					t.Fatalf("%#x is not mapped", va)
				}
				return a.isa.PFNOf(pte)
			}

			const size = 4 * arch.PageSize
			va := arch.Vaddr(arch.SpanBytes(2))
			if err := a.MmapFixed(0, va, size, arch.PermRW, mm.FlagPopulate); err != nil {
				t.Fatal(err)
			}
			follow("first touch", va)

			old := pfnOf(va)
			load(1, va)
			if err := m.Phys.MigrateFrame(0, old, 0); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if pfnOf(va) == old {
				t.Fatal("migration left the page on its frame")
			}
			follow("migrate", va)

			load(1, va)
			child, err := a.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			shared := load(1, va) // now through the write-protected frame
			follow("copy-on-write", va)
			if b, err := child.Load(0, va); err != nil || b != shared {
				t.Errorf("child reads %d, %v after the parent's break; want %d", b, err, shared)
			}
			child.Destroy(0)

			span := arch.SpanBytes(2)
			hv := arch.Vaddr(4) << 30
			if err := a.MmapFixed(0, hv, span, arch.PermRW, mm.FlagHuge2M); err != nil {
				t.Fatal(err)
			}
			in := hv + 7*arch.PageSize
			if err := a.Store(0, in, 0xEE); err != nil {
				t.Fatal(err)
			}
			if b := load(1, in); b != 0xEE { // cached as a huge entry, with no page
				t.Fatalf("core 1 reads %d through the huge leaf, want %d", b, 0xEE)
			}
			c, err := a.Lock(0, hv, hv+arch.Vaddr(span))
			if err != nil {
				t.Fatal(err)
			}
			demoted := c.demoteHuge(hv)
			c.Close()
			if !demoted {
				t.Fatal("the huge leaf was not split and shattered")
			}
			// The split needs no flush, so core 1 still holds the huge entry;
			// drop it, as any TLB may, so the next load caches the shattered
			// child's page.
			m.TLB.FlushLocal(1, a.asid, in)
			follow("split and shatter", in)

			load(1, va)
			if err := a.Munmap(0, va, size); err != nil {
				t.Fatal(err)
			}
			m.Quiesce()
			if err := a.MmapFixed(0, va, size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			if b := load(1, va); b != 0 {
				t.Errorf("core 1 reads %d from a fresh mapping at the old VA", b)
			}
			follow("remap", va)

			a.Destroy(0)
			checkClean(t, m)
		})
	}
}
