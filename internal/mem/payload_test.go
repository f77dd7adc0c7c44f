package mem

import (
	"strings"
	"testing"

	"cortenmm/internal/arch"
)

// dirty touches every frame's payload and fills it with 0xA5.
func dirty(m *PhysMem, pfns []arch.PFN) {
	for _, pfn := range pfns {
		b := m.DataPage(pfn)
		for i := range b {
			b[i] = 0xA5
		}
	}
}

// allocN takes n order-0 anonymous frames one by one.
func allocN(t *testing.T, m *PhysMem, core, n int) []arch.PFN {
	t.Helper()
	out := make([]arch.PFN, n)
	for i := range out {
		pfn, err := m.AllocFrame(core, KindAnon)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pfn
	}
	return out
}

// expectZeroEverywhere takes every free frame of the machine, through
// both the single and the batch entry point, and checks that each one's
// first touch reads 4096 zero bytes — whatever a previous life left
// behind, wherever the frame spent its time free.
func expectZeroEverywhere(t *testing.T, m *PhysMem, core int) {
	t.Helper()
	var all []arch.PFN
	batch := make([]arch.PFN, 48)
	for {
		if pfn, err := m.AllocFrame(core, KindAnon); err == nil {
			all = append(all, pfn)
		}
		n := m.AllocFrameBatch(core, KindAnon, batch)
		all = append(all, batch[:n]...)
		if n == 0 {
			break
		}
	}
	for _, pfn := range all {
		b := m.DataPage(pfn)
		if len(b) != arch.PageSize {
			t.Fatalf("frame %#x: payload of %d bytes", pfn, len(b))
		}
		for i, x := range b {
			if x != 0 {
				t.Fatalf("frame %#x byte %d reads %#x on first touch", pfn, i, x)
			}
		}
	}
	for _, pfn := range all {
		m.Put(core, pfn)
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestPayloadZeroAfterReuse is the clear_page property: a frame's bytes
// never survive into its next life, on any route a freed frame can take
// back to an owner.
func TestPayloadZeroAfterReuse(t *testing.T) {
	const nframes = 2048
	twoNode := func() *PhysMem { return NewPhysMemNUMA(nframes, 2, 2, clusterNodes(2, 2)) }
	for _, tc := range []struct {
		name string
		mk   func() *PhysMem
		run  func(t *testing.T, m *PhysMem)
	}{
		{"single", twoNode, func(t *testing.T, m *PhysMem) {
			f := allocN(t, m, 0, 8)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
		}},
		{"batch", twoNode, func(t *testing.T, m *PhysMem) {
			f := make([]arch.PFN, 96)
			if n := m.AllocFrameBatch(0, KindAnon, f); n != len(f) {
				t.Fatalf("batch gave %d", n)
			}
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
		}},
		{"pcp-spill", twoNode, func(t *testing.T, m *PhysMem) {
			f := allocN(t, m, 0, 3*pcpHigh)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
		}},
		{"drain-pcp", twoNode, func(t *testing.T, m *PhysMem) {
			f := allocN(t, m, 0, pcpBatch)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
			if m.DrainPCP() == 0 {
				t.Fatal("nothing to drain")
			}
			if rep := m.Audit(); !rep.Ok() || rep.KeptPayloads != 0 {
				t.Fatalf("after DrainPCP: %d kept payloads, %s", rep.KeptPayloads, rep.String())
			}
		}},
		{"cross-node-free", twoNode, func(t *testing.T, m *PhysMem) {
			f := allocN(t, m, 0, 8)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(1, pfn) // core 1 lives on the other node
			}
			if rep := m.Audit(); !rep.Ok() || rep.KeptPayloads != 0 {
				t.Fatalf("after off-node free: %d kept payloads, %s", rep.KeptPayloads, rep.String())
			}
		}},
		{"cross-node-free-untouched", twoNode, func(t *testing.T, m *PhysMem) {
			// The buffer arrives with the frame from the cache and must
			// not follow it into the other node's buddy.
			f := allocN(t, m, 0, 8)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
			for _, pfn := range allocN(t, m, 0, 8) {
				m.Put(1, pfn)
			}
			if rep := m.Audit(); !rep.Ok() || rep.KeptPayloads != 0 {
				t.Fatalf("after off-node free: %d kept payloads, %s", rep.KeptPayloads, rep.String())
			}
		}},
		{"shattered-block", func() *PhysMem { return NewPhysMem(nframes, 1) }, func(t *testing.T, m *PhysMem) {
			const n = 1 << hugeOrder
			head, err := m.AllocFrames(0, hugeOrder, KindAnon)
			if err != nil {
				t.Fatal(err)
			}
			b := m.Data(head)
			for i := range b {
				b[i] = 0xA5
			}
			// The post-split state ShatterBlock expects: one reference
			// and one mapping per 4-KiB PTE.
			m.GetN(head, n-1)
			m.Desc(head).MapN(n)
			if !m.ShatterBlock(head, &AnonOwner{}, 1<<21) {
				t.Fatal("ShatterBlock refused")
			}
			for i := arch.PFN(0); i < n; i++ {
				if got := m.DataPage(head + i)[7]; got != 0xA5 {
					t.Fatalf("child %d lost its bytes in the split: %#x", i, got)
				}
				m.Desc(head + i).Unmap()
				m.Put(0, head+i)
			}
			// Neither the head's 2-MiB buffer nor a child's window into
			// it may ride into the cache.
			if rep := m.Audit(); !rep.Ok() || rep.KeptPayloads != 0 {
				t.Fatalf("after freeing a shattered block: %d kept payloads, %s", rep.KeptPayloads, rep.String())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mk()
			tc.run(t, m)
			if rep := m.Audit(); !rep.Ok() {
				t.Fatal(rep.String())
			}
			for core := range m.pcp {
				expectZeroEverywhere(t, m, core)
			}
		})
	}
}

// TestPayloadRetentionBound: however many touched frames are freed, the
// buffers kept for reuse are those of pcp-cached frames only — at most
// cores × pcpHigh pages — and a frame in a buddy free list keeps none
// (Audit checks the latter frame by frame).
func TestPayloadRetentionBound(t *testing.T) {
	const cores = 2
	m := NewPhysMem(1<<14, cores)
	for core := 0; core < cores; core++ {
		f := allocN(t, m, core, 10*pcpHigh)
		dirty(m, f)
		for _, pfn := range f {
			m.Put(core, pfn)
		}
	}
	rep := m.Audit()
	if !rep.Ok() {
		t.Fatal(rep.String())
	}
	if rep.KeptPayloads == 0 || rep.KeptPayloads > cores*pcpHigh || rep.KeptPayloads > rep.PCPFree {
		t.Errorf("%d payloads kept, want 1..%d and at most the %d pcp-cached frames",
			rep.KeptPayloads, cores*pcpHigh, rep.PCPFree)
	}
	m.DrainPCP()
	if rep := m.Audit(); !rep.Ok() || rep.KeptPayloads != 0 {
		t.Errorf("after DrainPCP: %d kept payloads, %s", rep.KeptPayloads, rep.String())
	}
}

// TestPayloadUntouchedLifeKeepsBuffer: a life that never calls Data
// neither clears nor loses the buffer — it is still there, untouched,
// for the next life that does.
func TestPayloadUntouchedLifeKeepsBuffer(t *testing.T) {
	m := NewPhysMem(256, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	buf := m.DataPage(pfn)
	buf[0] = 0xA5
	m.Put(0, pfn)
	again, _ := m.AllocFrame(0, KindAnon) // LIFO: the same frame
	if again != pfn {
		t.Fatalf("pcp gave %#x, want %#x back", again, pfn)
	}
	m.Put(0, again)
	if buf[0] != 0xA5 {
		t.Error("an untouched life cleared the kept buffer")
	}
	third, _ := m.AllocFrame(0, KindAnon)
	got := m.DataPage(third)
	if &got[0] != &buf[0] {
		t.Error("the kept buffer was not reused")
	}
	if got[0] != 0 {
		t.Error("reused buffer not cleared on first touch")
	}
	m.Put(0, third)
}

// TestPTFrameFromPCPKeepsNoPayload: when the unmovable path is
// exhausted a page-table frame comes out of the pcp cache; a buffer
// cached with it is dropped, not carried under the page table.
func TestPTFrameFromPCPKeepsNoPayload(t *testing.T) {
	m := NewPhysMem(64, 1)
	f := allocN(t, m, 0, 2)
	dirty(m, f)
	m.Put(0, f[0])
	m.Put(0, f[1])
	var held []arch.PFN
	for { // empty the buddy so only the two cached frames remain
		pfn, ok := m.zones[0].buddy.alloc(0)
		if !ok {
			break
		}
		held = append(held, pfn)
	}
	pt, err := m.AllocFrame(0, KindPT)
	if err != nil {
		t.Fatal(err)
	}
	if pt != f[0] && pt != f[1] {
		t.Fatalf("PT frame %#x did not come from the pcp cache", pt)
	}
	for _, pfn := range held {
		m.zones[0].buddy.free(pfn, 0)
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	m.Put(0, pt)
}

// TestAuditCatchesPayloadInBuddy: the new invariant is checked, not
// assumed — a buffer smuggled onto a buddy-listed frame, a payload still
// published by a free frame and a wrong-sized kept buffer are each
// reported.
func TestAuditCatchesPayloadInBuddy(t *testing.T) {
	m := NewPhysMem(256, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	m.DataPage(pfn)
	m.Put(0, pfn) // cached, buffer kept
	d := m.Desc(pfn)
	kept := d.spare.Load()
	if kept == nil {
		t.Fatal("no buffer kept on a pcp-cached frame")
	}
	expect := func(want string) {
		t.Helper()
		rep := m.Audit()
		if rep.Ok() || !strings.Contains(rep.String(), want) {
			t.Errorf("audit did not report %q:\n%s", want, rep.String())
		}
	}

	big := make([]byte, 2*arch.PageSize)
	d.spare.Store(&big)
	expect("not one page")
	d.spare.Store(kept)

	d.data.Store(kept)
	expect("still publishes a payload")
	d.data.Store(nil)

	// Move the cache to the buddy behind the allocator's back.
	m.zones[0].buddy.freeBatch(m.pcp[0].drain())
	expect("keeps a payload")
	d.spare.Store(nil)
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}
