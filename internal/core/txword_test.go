package core

import (
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/rcu"
	"cortenmm/internal/tlb"
)

// TestPerCoreLayout pins the per-core cursor slot at whole cache lines:
// with the pad gone, core k's cursor tail and core k+1's cursor head
// share a line and every transaction on one bounces the other's.
// (cpusim's test of the same name pins the transaction word's line.)
func TestPerCoreLayout(t *testing.T) {
	size, cur := unsafe.Sizeof(cachedCursor{}), unsafe.Sizeof(RCursor{})
	if size%64 != 0 || size < cur || size-cur >= 64 {
		t.Errorf("cachedCursor is %d bytes around a %d-byte RCursor, want the next multiple of 64", size, cur)
	}
}

// inTxAnywhere reports whether any core's transaction word is raised.
func inTxAnywhere(m *cpusim.Machine) bool {
	for c := 0; c < m.Cores; c++ {
		if m.InTx(c) {
			return true
		}
	}
	return false
}

// TestBadCore: a core index outside the machine returns mm.ErrBadCore
// from every entry point — never an index-out-of-range panic in the VA
// arena, the event clock or the per-core words of the bracket — and
// leaves the space as it was.
func TestBadCore(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			a.SetSwapDev(mem.NewBlockDev("swap0"))
			const size = 4 * arch.PageSize
			va, err := a.Mmap(0, size, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, va, 42); err != nil {
				t.Fatal(err)
			}
			before := a.Stats().Snapshot()
			for _, core := range []int{-1, m.Cores} {
				b := a.NewBatch(0)
				if err := b.Munmap(va, size); err != nil {
					t.Fatal(err)
				}
				b.core = core
				for name, call := range entryPoints(a, b, core, va, size) {
					if err := call(); !errors.Is(err, mm.ErrBadCore) {
						t.Errorf("%s on core %d = %v, want ErrBadCore", name, core, err)
					}
				}
			}
			if after := a.Stats().Snapshot(); after != before {
				t.Errorf("counters moved:\nbefore %+v\nafter  %+v", before, after)
			}
			if inTxAnywhere(m) {
				t.Error("a refused call left a transaction word raised")
			}
			if got, err := a.Load(0, va); err != nil || got != 42 {
				t.Errorf("Load after refused calls = %d, %v", got, err)
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestTxWordReturnsToZero: every way out of a transaction lowers the
// core's word again — Close, closeInto, a Lock refused on a destroyed
// space, the OOM killer's teardown, Destroy.
func TestTxWordReturnsToZero(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			const size = 4 * arch.PageSize
			va, err := a.Mmap(0, size, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			other, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				if inTxAnywhere(m) {
					t.Fatalf("transaction word raised after %s", when)
				}
			}
			c, err := a.Lock(0, va, va+size)
			if err != nil {
				t.Fatal(err)
			}
			if !m.InTx(0) || !a.holdsTx(0) || m.InTx(1) {
				t.Fatal("an open transaction is not in its core's word")
			}
			// A nested transaction (fork's shape: another space, same core)
			// gets a fresh cursor, and while it is open the word, which
			// names only the outermost space, answers for every space.
			inner, err := other.Lock(0, va, va+size)
			if err != nil {
				t.Fatal(err)
			}
			if inner == &other.cursors[0].c || c != &a.cursors[0].c {
				t.Error("the nested transaction got a cached cursor, or the outermost did not")
			}
			if !other.holdsTx(0) {
				t.Error("a nested transaction's space is not reported held")
			}
			inner.Close()
			if other.holdsTx(0) || !a.holdsTx(0) {
				t.Error("with the nested transaction closed the word should name the outer space only")
			}
			c.Close()
			c.Close() // closing twice is a no-op
			check("Close")

			b := a.NewBatch(0)
			if err := b.Mprotect(va, size, arch.PermRead); err != nil {
				t.Fatal(err)
			}
			if err := b.Submit()[0].Err; err != nil {
				t.Fatal(err)
			}
			check("closeInto")

			if a.oomTeardown(0) == 0 {
				t.Error("oomTeardown released nothing")
			}
			check("oomTeardown")
			a.Destroy(0)
			other.Destroy(0)
			check("Destroy")
			if _, err := a.Lock(0, va, va+size); !errors.Is(err, ErrDestroyed) {
				t.Errorf("Lock after Destroy = %v", err)
			}
			check("a refused Lock")
			checkClean(t, m)
		})
	}
}

// TestDeferredWorkGetsFreshCursor: the cached cursor stays its owner's
// until Close has finished reading it. A transaction opened on the same
// core ID from inside Close's own deferred work — here an RCU callback
// that Close's ReapBacklog drive runs — must get a fresh cursor; handing
// it the cached one would reset the flush and freed lists Close is still
// walking. That is why the word is lowered last.
func TestDeferredWorkGetsFreshCursor(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			const size = 4 * arch.PageSize
			va, err := a.Mmap(0, size, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			far := va + arch.Vaddr(arch.SpanBytes(2)) // under another leaf table: disjoint locks
			if err := a.MmapFixed(0, far, size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			m.Quiesce()

			ran, gotCached := false, false
			m.RCU.Defer(func() {
				c, err := a.Lock(0, far, far+size)
				if err != nil {
					t.Error(err)
					return
				}
				ran, gotCached = true, c == &a.cursors[0].c
				c.Close()
			})
			for i := 1; i < cpusim.ReapBacklog; i++ {
				m.RCU.Defer(func() {})
			}

			c, err := a.Lock(0, va, va+size)
			if err != nil {
				t.Fatal(err)
			}
			if c != &a.cursors[0].c {
				t.Fatal("the outermost transaction did not get the cached cursor")
			}
			if err := c.Unmap(va, va+size); err != nil {
				t.Fatal(err)
			}
			freed := len(c.freed)
			c.Close() // shootdown, DeferPut, backlog >= ReapBacklog: Reap runs the callback
			if !ran {
				t.Fatal("the deferred callback did not run inside Close")
			}
			if gotCached {
				t.Error("a transaction opened during Close's deferred work got the cached cursor")
			}
			if freed == 0 || len(a.cursors[0].c.freed) != freed {
				t.Errorf("the closing cursor's freed list changed under it: %d -> %d runs", freed, len(a.cursors[0].c.freed))
			}
			if inTxAnywhere(m) {
				t.Error("transaction word raised after Close")
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestReclaimHookSkipsHeldSpace: the in-allocator reclaim, fired on
// a core that is inside a transaction (a fault that ran out of frames),
// must not sweep the space that transaction belongs to — the PT locks
// are not reentrant — and must still reclaim from another registered
// space. Reclaim runs on a helper goroutine carrying the same core ID
// so that a broken guard shows as a timeout, not a hung test binary.
func TestReclaimHookSkipsHeldSpace(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			d := AttachReclaim(m, ReclaimConfig{})
			const size = 16 * arch.PageSize
			var spaces [2]*AddrSpace
			var vas [2]arch.Vaddr
			for i := range spaces {
				a, err := New(Options{Machine: m, Protocol: p, SwapDev: mem.NewBlockDev("swap")})
				if err != nil {
					t.Fatal(err)
				}
				d.Register(a)
				if vas[i], err = a.Mmap(0, size, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatal(err)
				}
				spaces[i] = a
			}
			held, free := spaces[0], spaces[1]

			c, err := held.Lock(0, vas[0], vas[0]+arch.PageSize) // what a fault holds
			if err != nil {
				t.Fatal(err)
			}
			if !held.holdsTx(0) || free.holdsTx(0) || held.holdsTx(1) {
				t.Fatal("holdsTx does not tell the held space from the free one")
			}
			done := make(chan int, 1)
			go func() { done <- d.Reclaim(0, m.NodeOf(0), 8) }()
			select {
			case n := <-done:
				if n == 0 {
					t.Error("Reclaim reclaimed nothing from the space it could sweep")
				}
			case <-time.After(20 * time.Second):
				t.Fatal("Reclaim is stuck: it swept the space its core holds locks in")
			}
			c.Close()
			if n := held.Stats().SwapOuts.Load(); n != 0 {
				t.Errorf("Reclaim swapped %d pages out of the held space", n)
			}
			if free.Stats().SwapOuts.Load() == 0 {
				t.Error("Reclaim swapped nothing out of the other space")
			}
			// With the transaction closed the same space is fair game.
			if d.Reclaim(0, m.NodeOf(0), 64) == 0 || held.Stats().SwapOuts.Load() == 0 {
				t.Error("Reclaim still skips the space after its transaction closed")
			}
			for _, a := range spaces {
				a.Destroy(0)
			}
			checkClean(t, m)
		})
	}
}

// TestCompactionRefusesInsideTx: direct compaction and the compaction
// tick lock other spaces' PT pages, so both refuse on a core that
// is inside a transaction in any space of the machine — here one that
// is registered with no manager at all, which only a machine-wide word
// can see.
func TestCompactionRefusesInsideTx(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
	d := AttachCompaction(m, CompactConfig{ScanSpans: 8})
	scanned, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	d.Register(scanned)
	span := arch.SpanBytes(2)
	if err := scanned.MmapFixed(0, arch.Vaddr(span), span, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	outsider, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	va, err := outsider.Mmap(0, arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}

	c, err := outsider.Lock(0, va, va+arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	if d.Compact(0, m.NodeOf(0), arch.IndexBits) {
		t.Error("direct compaction ran inside a transaction")
	}
	if st := d.Stats(); st.SpansScanned != 0 || st.DirectRefused != 1 || st.DirectRuns != 0 {
		t.Errorf("inside a transaction: %+v, want nothing scanned, one refusal, no run", st)
	}
	d.Tick(1) // another core is not inside anything
	if d.Stats().SpansScanned == 0 {
		t.Error("core 1's tick refused because of core 0's transaction")
	}
	c.Close()

	scannedBefore := d.Stats().SpansScanned
	d.Tick(0)
	d.Compact(0, m.NodeOf(0), arch.IndexBits)
	if st := d.Stats(); st.SpansScanned == scannedBefore || st.DirectRefused != 1 || st.DirectRuns != 1 {
		t.Errorf("outside a transaction: %+v, want a scan and one run", st)
	}
	scanned.Destroy(0)
	outsider.Destroy(0)
	checkClean(t, m)
}

// TestCursorHasOneDeferredRecord fails when RCursor grows a second home
// for deferred side effects beside its embedded deferredOps — a flush or
// freed list of its own would need its own commit path, which is the
// duplication Close/spillDeferred/closeInto sharing one record removed.
func TestCursorHasOneDeferredRecord(t *testing.T) {
	records := 0
	ct := reflect.TypeOf(RCursor{})
	for i := 0; i < ct.NumField(); i++ {
		switch f := ct.Field(i); f.Type {
		case reflect.TypeOf(deferredOps{}):
			records++
		case reflect.TypeOf([]tlb.Range(nil)), reflect.TypeOf([]rcu.FrameRun(nil)):
			t.Errorf("RCursor.%s is a %v outside the deferred record", f.Name, f.Type)
		}
	}
	if records != 1 {
		t.Errorf("RCursor holds %d deferredOps, want exactly 1", records)
	}
}
