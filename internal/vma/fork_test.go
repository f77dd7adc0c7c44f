package vma

import (
	"fmt"
	"maps"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestOneCopierSameChild: fork is one copier, pt.Tree.ForkInto, in every
// tree-based system. The same op sequence — private pages written, a
// hole punched, a read-only range, a shared file mapping partly touched
// — forked on corten-adv, corten-rw and linux-vma gives each child the
// parent's frame at every VA the parent maps, and all three children the
// same leaves (permission and byte, page by page) and all three parents
// the same set of pages turned copy-on-write.
func TestOneCopierSameChild(t *testing.T) {
	const pg = arch.PageSize
	type system struct {
		name string
		new  func(m *cpusim.Machine) (mm.MM, error)
		tree func(mm.MM) *pt.Tree
	}
	coreTree := func(s mm.MM) *pt.Tree { return s.(*core.AddrSpace).Tree() }
	systems := []system{
		{"corten-adv", func(m *cpusim.Machine) (mm.MM, error) {
			return core.New(core.Options{Machine: m, Protocol: core.ProtocolAdv})
		}, coreTree},
		{"corten-rw", func(m *cpusim.Machine) (mm.MM, error) {
			return core.New(core.Options{Machine: m, Protocol: core.ProtocolRW})
		}, coreTree},
		{"linux-vma", func(m *cpusim.Machine) (mm.MM, error) { return New(m, nil) }, func(s mm.MM) *pt.Tree { return s.(*Space).tree }},
	}
	// A leaf, keyed by its window and page: what a child must agree on
	// across systems (its frame is only comparable within one machine).
	type key struct{ window, page int }
	type leaf struct {
		frame arch.PFN
		perm  arch.Perm
		b     byte
	}
	var want map[key]leaf
	var wantCOW map[key]bool
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			must := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			anon := cpusim.UserLo + 1<<30
			must("mmap", s.MmapFixed(0, anon, 12*pg, arch.PermRW, 0))
			for i := 0; i < 12; i++ {
				if i < 6 || i >= 8 {
					must("store", s.Store(0, anon+arch.Vaddr(i)*pg, byte(1+i)))
				}
			}
			must("munmap", s.Munmap(0, anon+2*pg, pg))
			must("mprotect", s.Mprotect(0, anon+8*pg, 4*pg, arch.PermRead))
			f := mem.NewFile(m.Phys, "f", 4*pg)
			shared, err := s.(mm.FileMapper).MmapFile(0, f, 0, 4*pg, arch.PermRW, true)
			must("mmap file", err)
			must("store", s.Store(0, shared, 0x51))
			must("store", s.Store(0, shared+2*pg, 0x53))
			windows := []struct {
				va    arch.Vaddr
				pages int
			}{{anon, 12}, {shared, 4}}
			leaves := func(s mm.MM) map[key]leaf {
				tr := sys.tree(s)
				out := map[key]leaf{}
				for w, win := range windows {
					for p := 0; p < win.pages; p++ {
						va := win.va + arch.Vaddr(p)*pg
						if pte, _, ok := tr.Walk(va); ok {
							frame := tr.ISA.PFNOf(pte)
							out[key{w, p}] = leaf{frame, tr.ISA.PermOf(pte), m.Phys.DataPage(frame)[0]}
						}
					}
				}
				return out
			}

			before := leaves(s)
			child, err := s.(mm.Forker).Fork(0)
			must("fork", err)
			after, got := leaves(s), leaves(child)
			cow := map[key]bool{}
			for k, l := range after {
				if was := before[k].perm; was&arch.PermWrite != 0 && l.perm&arch.PermWrite == 0 {
					if l.perm&arch.PermCOW == 0 {
						t.Errorf("%v: parent page lost its write permission but is not COW: %v", k, l.perm)
					}
					cow[k] = true
				}
			}
			if len(got) != 11 || len(after) != 11 {
				t.Errorf("child maps %d pages, parent %d; want the 11 written", len(got), len(after))
			}
			for k, l := range got {
				if p := after[k]; p != l {
					t.Errorf("%v: child leaf %+v, parent %+v", k, l, p)
				}
			}
			// Frames differ between machines; permissions and bytes do not.
			norm := map[key]leaf{}
			for k, l := range got {
				norm[k] = leaf{perm: l.perm, b: l.b}
			}
			if want == nil {
				want, wantCOW = norm, cow
				if len(cow) != 5 {
					t.Errorf("%d parent pages turned COW, want the 5 private writable ones", len(cow))
				}
			} else {
				if !maps.Equal(norm, want) {
					t.Errorf("child leaves differ from %s's:\n got %v\nwant %v", systems[0].name, fmt.Sprint(norm), fmt.Sprint(want))
				}
				if !maps.Equal(cow, wantCOW) {
					t.Errorf("COW pages %v, %s's %v", cow, systems[0].name, wantCOW)
				}
			}
			child.Destroy(1)
			s.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}
