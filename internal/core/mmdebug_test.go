//go:build mmdebug

package core

import (
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestHitCheckCatchesBadEntries: with -tags mmdebug every TLB hit is
// checked against the frame it names. A doctored entry whose page is not
// the frame's payload, and one naming a free frame, each make the next
// access panic with the core, the VA and the frame.
func TestHitCheckCatchesBadEntries(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	va, err := a.Mmap(0, 2*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va, 1); err != nil {
		t.Fatal(err)
	}
	pte, _, _ := a.tree.Walk(va)
	mapped := a.isa.PFNOf(pte)
	free, err := m.Phys.AllocFrame(0, mem.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	m.Phys.Put(0, free)

	var doctored [arch.PageSize]byte
	for _, tc := range []struct {
		name string
		va   arch.Vaddr
		tr   pt.Translation
		want string
	}{
		{"foreign page", va, pt.Translation{PFN: mapped, Perm: arch.PermRW, Level: 1, Page: &doctored}, "not the frame's payload"},
		{"free frame", va + arch.PageSize, pt.Translation{PFN: free, Perm: arch.PermRW, Level: 1}, "which is free"},
	} {
		m.TLB.Insert(1, a.asid, tc.va, tc.tr)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: Load did not panic", tc.name)
					return
				}
				// The panic left core 1's read section open; close it so the
				// teardown's grace periods can complete.
				m.RCU.ReadUnlock(1)
				if msg, _ := r.(string); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "core 1") {
					t.Errorf("%s: Load panicked with %q, want a message containing %q", tc.name, msg, tc.want)
				}
			}()
			a.Load(1, tc.va)
		}()
		m.TLB.FlushLocal(1, a.asid, tc.va)
	}
	a.Destroy(0)
	checkClean(t, m)
}
