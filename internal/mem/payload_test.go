package mem

import (
	"strings"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/rcu"
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
// back to an owner, and whichever frame's first touch takes the buffer
// a dead life left on the machine's recycle list.
func TestPayloadZeroAfterReuse(t *testing.T) {
	const nframes = 2048
	twoNode := func() *PhysMem { return NewPhysMemNUMA(nframes, clusterNodes(2, 2)) }
	recycled := func(t *testing.T, m *PhysMem, want int, when string) {
		t.Helper()
		if rep := m.Audit(); !rep.Ok() || len(m.pages.bufs) != want {
			t.Fatalf("%s: %d payloads recycled, want %d; %s", when, len(m.pages.bufs), want, rep.String())
		}
	}
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
		{"long-free", twoNode, func(t *testing.T, m *PhysMem) {
			f := make([]arch.PFN, 3*pcpBatch)
			if n := m.AllocFrameBatch(0, KindAnon, f); n != len(f) {
				t.Fatalf("batch gave %d", n)
			}
			dirty(m, f)
			// One-frame runs, long only in total: past the cache, straight
			// to the buddy.
			runs := make([]rcu.FrameRun, len(f))
			for i, pfn := range f {
				runs[i] = rcu.FrameRun{Head: pfn, N: 1}
			}
			m.PutRuns(0, runs)
			recycled(t, m, len(f), "after a long PutRuns")
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
			recycled(t, m, pcpBatch, "after DrainPCP")
		}},
		{"cross-node-free", twoNode, func(t *testing.T, m *PhysMem) {
			f := allocN(t, m, 0, 8)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(1, pfn) // core 1 lives on the other node
			}
			recycled(t, m, 8, "after off-node free")
		}},
		{"cross-node-free-untouched", twoNode, func(t *testing.T, m *PhysMem) {
			// The buffers stay on the machine's list; an untouched life
			// on the cached frames neither takes nor returns one.
			f := allocN(t, m, 0, 8)
			dirty(m, f)
			for _, pfn := range f {
				m.Put(0, pfn)
			}
			for _, pfn := range allocN(t, m, 0, 8) {
				m.Put(1, pfn)
			}
			recycled(t, m, 8, "after off-node free")
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
			// it may be recycled.
			recycled(t, m, 0, "after freeing a shattered block")
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

// TestPayloadRetentionBound: however many touched frames and page-table
// frames are freed, the machine keeps at most cores × pcpHigh buffers of
// each kind for reuse, and no free frame holds one (Audit checks the
// latter frame by frame) — wherever the frame went, cache or buddy.
func TestPayloadRetentionBound(t *testing.T) {
	const cores = 2
	m := NewPhysMem(1<<14, cores)
	for core := 0; core < cores; core++ {
		f := allocN(t, m, core, 10*pcpHigh)
		dirty(m, f)
		for _, pfn := range f {
			m.Put(core, pfn)
		}
		var pts []arch.PFN
		for i := 0; i < 2*pcpHigh; i++ {
			pfn, err := m.AllocFrame(core, KindPT)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pfn)
		}
		putList(m, core, pts)
	}
	for _, tc := range []struct {
		name string
		n    int
	}{{"payloads", len(m.pages.bufs)}, {"word arrays", len(m.tables.bufs)}} {
		if tc.n != cores*pcpHigh {
			t.Errorf("%d %s recycled, want the bound %d", tc.n, tc.name, cores*pcpHigh)
		}
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
	m.DrainPCP()
	if rep := m.Audit(); !rep.Ok() || len(m.pages.bufs) != cores*pcpHigh {
		t.Errorf("after DrainPCP: %d payloads recycled, %s", len(m.pages.bufs), rep.String())
	}
}

// TestPayloadUntouchedLifeKeepsBuffer: a life that never calls Data
// neither clears nor takes the recycled buffer — it is still on the
// list, untouched, for the next life that does.
func TestPayloadUntouchedLifeKeepsBuffer(t *testing.T) {
	m := NewPhysMem(256, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	buf := m.DataPage(pfn)
	buf[0] = 0xA5
	m.Put(0, pfn)
	again, _ := m.AllocFrame(0, KindAnon)
	m.Put(0, again)
	if buf[0] != 0xA5 || len(m.pages.bufs) != 1 {
		t.Errorf("an untouched life cleared or took the recycled buffer (%d on the list)", len(m.pages.bufs))
	}
	third, _ := m.AllocFrame(0, KindAnon)
	got := m.DataPage(third)
	if &got[0] != &buf[0] || len(m.pages.bufs) != 0 {
		t.Error("the recycled buffer was not reused")
	}
	if got[0] != 0 {
		t.Error("reused buffer not cleared on first touch")
	}
	m.Put(0, third)
}

// TestPTFrameFromPCPKeepsNoPayload: when the unmovable path is
// exhausted a page-table frame comes out of the pcp cache; it starts
// with a word array and no payload, and the payloads its frame's last
// life left stay on the recycle list for data frames.
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
	if rep := m.Audit(); !rep.Ok() || len(m.pages.bufs) != 2 || m.Desc(pt).data.Load() != nil {
		t.Fatalf("%d payloads recycled, want 2; %s", len(m.pages.bufs), rep.String())
	}
	m.Put(0, pt)
}

// TestAuditCatchesPayloadInBuddy: the buffer invariants are checked, not
// assumed — a buffer smuggled onto a free frame (a payload it still
// publishes, one on a buddy-listed frame, a PT word array), an oversized
// buffer on the recycle list and a live frame publishing a listed
// buffer are each reported.
func TestAuditCatchesPayloadInBuddy(t *testing.T) {
	m := NewPhysMem(256, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	m.DataPage(pfn)
	m.Put(0, pfn) // cached, its buffer recycled
	d := m.Desc(pfn)
	if len(m.pages.bufs) != 1 {
		t.Fatal("no buffer recycled")
	}
	kept := m.pages.bufs[0]
	expect := func(want string) {
		t.Helper()
		rep := m.Audit()
		if rep.Ok() || !strings.Contains(rep.String(), want) {
			t.Errorf("audit did not report %q:\n%s", want, rep.String())
		}
	}

	big := make([]byte, 2*arch.PageSize)
	m.pages.bufs[0] = &big
	expect("not one page")
	m.pages.bufs[0] = kept

	d.data.Store(kept)
	expect("free but still holds a buffer")
	// Move the cache to the buddy behind the allocator's back.
	m.zones[0].buddy.freeBatch(m.pcp[0].drain())
	expect("free but still holds a buffer")
	d.data.Store(nil)

	d.words = new([arch.PTEntries]uint64)
	expect("free but still holds a buffer")
	d.words = nil

	live, _ := m.AllocFrame(0, KindAnon)
	m.Desc(live).data.Store(kept)
	expect("publishes a payload on the recycle list")
	m.Desc(live).data.Store(nil)
	m.Put(0, live)
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestPTWordsZeroOnReuse: a page-table frame's word array is recycled
// into the next PT page, so its free waits for the monitor. A filled
// table freed through the monitor stays intact for a walker inside its
// read section; once the grace period ends, the next PT page takes the
// same array and reads all zero.
func TestPTWordsZeroOnReuse(t *testing.T) {
	m := NewPhysMem(256, 2)
	d := rcu.NewDomain(2)
	table, err := m.AllocFrame(0, KindPT)
	if err != nil {
		t.Fatal(err)
	}
	words := m.Words(table)
	for i := range words {
		atomic.StoreUint64(&words[i], uint64(i)<<12|1)
	}
	entered, leave, left := make(chan struct{}), make(chan struct{}), make(chan bool)
	go func() { // a walker that found the table before it was unlinked
		d.ReadLock(1)
		close(entered)
		<-leave
		intact := true
		for i := range words {
			intact = intact && atomic.LoadUint64(&words[i]) == uint64(i)<<12|1
		}
		d.ReadUnlock(1)
		left <- intact
	}()
	<-entered
	d.Defer(func() { m.Put(0, table) })
	d.Poll()
	if len(m.tables.bufs) != 0 {
		t.Fatal("the table was freed under a reader")
	}
	close(leave)
	if !<-left {
		t.Fatal("the walker saw the table change inside its read section")
	}
	d.Poll()
	if len(m.tables.bufs) != 1 {
		t.Fatalf("%d word arrays recycled after the grace period, want 1", len(m.tables.bufs))
	}
	next, err := m.AllocFrame(0, KindPT)
	if err != nil {
		t.Fatal(err)
	}
	if m.Words(next) != words {
		t.Fatal("the new PT page did not reuse the freed word array")
	}
	for i, w := range m.Words(next) {
		if w != 0 {
			t.Fatalf("entry %d of a new PT page reads %#x", i, w)
		}
	}
	m.Put(0, next)
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}
