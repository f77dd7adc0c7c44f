package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
)

func TestDeferRunsAfterReadersExit(t *testing.T) {
	d := NewDomain(2)
	var ran atomic.Bool

	d.ReadLock(0)
	d.Defer(func() { ran.Store(true) })
	d.Poll()
	if ran.Load() {
		t.Fatal("callback ran while a pre-existing reader was active")
	}
	d.ReadUnlock(0)
	d.Poll()
	if !ran.Load() {
		t.Fatal("callback did not run after reader exited")
	}
}

func TestNewReaderDoesNotBlockOldCallback(t *testing.T) {
	d := NewDomain(2)
	var ran atomic.Bool
	d.Defer(func() { ran.Store(true) })
	// A reader that starts after the Defer observed a newer epoch and
	// cannot hold a reference to the deferred object.
	d.ReadLock(1)
	d.Poll()
	if !ran.Load() {
		t.Fatal("post-Defer reader wrongly delayed the callback")
	}
	d.ReadUnlock(1)
}

func TestNestedReadSections(t *testing.T) {
	d := NewDomain(1)
	d.ReadLock(0)
	d.ReadLock(0)
	var ran atomic.Bool
	d.Defer(func() { ran.Store(true) })
	d.ReadUnlock(0)
	d.Poll()
	if ran.Load() {
		t.Fatal("callback ran with nested section still open")
	}
	if !d.InReader(0) {
		t.Fatal("InReader false inside nested section")
	}
	d.ReadUnlock(0)
	d.Poll()
	if !ran.Load() {
		t.Fatal("callback did not run after full exit")
	}
	if d.InReader(0) {
		t.Fatal("InReader true after exit")
	}
}

func TestUnbalancedUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unbalanced ReadUnlock did not panic")
		}
	}()
	NewDomain(1).ReadUnlock(0)
}

// TestReaderWordNesting: the nesting depth and the entry epoch share one
// word. The section stays open, at the first entrant's epoch, through
// any depth of nesting and however far the domain's epoch moves
// meanwhile, and an unlock too many panics without disturbing the word.
func TestReaderWordNesting(t *testing.T) {
	const depth = 1000
	d := NewDomain(2)
	var ran atomic.Bool
	d.ReadLock(0)
	d.Defer(func() { ran.Store(true) })
	for i := 1; i < depth; i++ {
		d.Defer(func() {}) // moves the epoch on between nested entries
		d.ReadLock(0)
	}
	for i := depth; i > 0; i-- {
		if !d.InReader(0) {
			t.Fatalf("InReader false at depth %d", i)
		}
		d.Poll()
		if ran.Load() {
			t.Fatalf("callback queued inside the section ran at depth %d", i)
		}
		d.ReadUnlock(0)
	}
	if d.InReader(0) || d.InReader(1) {
		t.Fatal("InReader true after the last exit")
	}
	d.Poll()
	if !ran.Load() {
		t.Fatal("callback did not run after the last exit")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unbalanced ReadUnlock after a balanced section did not panic")
			}
		}()
		d.ReadUnlock(0)
	}()
	d.ReadLock(0) // the word is still usable
	if !d.InReader(0) {
		t.Fatal("InReader false after re-entry")
	}
	d.ReadUnlock(0)
}

// TestSharedCoreIDKeepsSectionOpen: two goroutines on one core id (a
// reverse-mapping walk beside the core's own access) share the reader
// word. The first entrant's epoch stands until the last of them leaves,
// so a callback queued after the first entered stays deferred while the
// second — who may have seen the object through the first's eyes — is
// still inside, also for a PollBefore at the current epoch.
func TestSharedCoreIDKeepsSectionOpen(t *testing.T) {
	d := NewDomain(1)
	var ran atomic.Bool
	entered, leave := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)

	d.ReadLock(0) // first entrant
	d.Defer(func() { ran.Store(true) })
	go func() { // second entrant, at a newer epoch
		defer wg.Done()
		d.ReadLock(0)
		close(entered)
		<-leave
		d.ReadUnlock(0)
	}()
	<-entered
	d.ReadUnlock(0) // the first leaves; the second is still inside
	if !d.InReader(0) {
		t.Fatal("InReader false with the second goroutine inside")
	}
	d.PollBefore(d.Epoch())
	if ran.Load() {
		t.Fatal("callback ran while a goroutine sharing the section was inside")
	}
	close(leave)
	wg.Wait()
	d.PollBefore(d.Epoch())
	if !ran.Load() || d.InReader(0) {
		t.Fatalf("after the last exit: ran=%v, InReader=%v", ran.Load(), d.InReader(0))
	}
}

func TestSynchronizeWaitsForReaders(t *testing.T) {
	d := NewDomain(4)
	d.ReadLock(2)
	released := make(chan struct{})
	synced := make(chan struct{})
	go func() {
		d.Synchronize()
		close(synced)
	}()
	select {
	case <-synced:
		t.Fatal("Synchronize returned while reader active")
	default:
	}
	go func() {
		d.ReadUnlock(2)
		close(released)
	}()
	<-released
	<-synced
}

func TestBarrierDrainsAll(t *testing.T) {
	d := NewDomain(2)
	var count atomic.Int32
	for i := 0; i < 100; i++ {
		d.Defer(func() { count.Add(1) })
	}
	d.Barrier()
	if count.Load() != 100 {
		t.Fatalf("Barrier ran %d/100 callbacks", count.Load())
	}
	st := d.Stats()
	if st.Pending != 0 || st.Freed != 100 || st.Deferred != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// The core safety property the RCU monitor gives CortenMM_adv: an object
// freed via Defer is never reclaimed while a reader that could have seen
// it is still inside its critical section — with a core id per reader,
// and with every reader on core id 0: entering is one CAS, so no
// goroutine is ever inside a section the shared word does not show,
// whichever of them raised the depth from zero.
func TestConcurrentNoUseAfterFree(t *testing.T) {
	const cores = 8
	for _, shared := range []bool{false, true} {
		name := "core-per-reader"
		if shared {
			name = "shared-core-id"
		}
		t.Run(name, func(t *testing.T) {
			d := NewDomain(cores)
			type obj struct{ alive atomic.Bool }

			var current atomic.Pointer[obj]
			first := &obj{}
			first.alive.Store(true)
			current.Store(first)

			var wg sync.WaitGroup
			var stop atomic.Bool
			var violations atomic.Int64

			for c := 0; c < cores-1; c++ {
				c := c
				if shared {
					c = 0
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						d.ReadLock(c)
						o := current.Load()
						runtime.Gosched()
						if !o.alive.Load() {
							violations.Add(1)
						}
						d.ReadUnlock(c)
					}
				}()
			}

			// Updater: swap the object and defer-free the old one.
			for i := 0; i < 2000; i++ {
				next := &obj{}
				next.alive.Store(true)
				old := current.Swap(next)
				d.Defer(func() { old.alive.Store(false) })
				d.Poll()
			}
			stop.Store(true)
			wg.Wait()
			d.Barrier()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d use-after-free observations", v)
			}
			for c := 0; c < cores; c++ {
				if d.InReader(c) {
					t.Fatalf("InReader(%d) true after every goroutine left", c)
				}
			}
		})
	}
}

func BenchmarkReadSection(b *testing.B) {
	d := NewDomain(1)
	for i := 0; i < b.N; i++ {
		d.ReadLock(0)
		d.ReadUnlock(0)
	}
}

func BenchmarkReadSectionParallel(b *testing.B) {
	cores := 64
	d := NewDomain(cores)
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		c := int(next.Add(1)-1) % cores
		for pb.Next() {
			d.ReadLock(c)
			d.ReadUnlock(c)
		}
	})
}

// putLog records released frames in order, and how many calls carried
// them; it stands in for *mem.PhysMem.
type putLog struct {
	core  []int
	pfn   []arch.PFN
	calls int
}

func (p *putLog) PutRun(core int, head arch.PFN, n int) {
	p.calls++
	for i := 0; i < n; i++ {
		p.core = append(p.core, core)
		p.pfn = append(p.pfn, head+arch.PFN(i))
	}
}

// TestDeferPutIsOneCallback: a typed frame free waits for the same
// grace period as a closure, puts every frame of every run once, on
// behalf of the core that queued it, and counts as exactly one callback
// in Stats wherever a closure would — however many runs it carries.
func TestDeferPutIsOneCallback(t *testing.T) {
	d := NewDomain(2)
	var log putLog
	runs := []FrameRun{{Head: 10, N: 3}, {Head: 40, N: 1}}
	d.ReadLock(1)
	d.DeferPut(&log, 0, runs)
	runs[0] = FrameRun{Head: 99, N: 9} // the caller's list is its own again
	if st := d.Stats(); st.Deferred != 1 || st.Pending != 1 || st.Freed != 0 {
		t.Fatalf("after DeferPut: %+v", st)
	}
	d.Poll()
	if len(log.pfn) != 0 {
		t.Fatal("frames put while a pre-existing reader was active")
	}
	d.ReadUnlock(1)
	d.Poll()
	want := []arch.PFN{10, 11, 12, 40}
	if len(log.pfn) != len(want) || log.calls != len(runs) {
		t.Fatalf("put %v in %d calls, want %v in one call per run", log.pfn, log.calls, want)
	}
	for i, pfn := range want {
		if log.pfn[i] != pfn || log.core[i] != 0 {
			t.Fatalf("put %v on cores %v, want %v on core 0", log.pfn, log.core, want)
		}
	}
	if st := d.Stats(); st.Deferred != 1 || st.Pending != 0 || st.Freed != 1 {
		t.Fatalf("after the grace period: %+v", st)
	}
}

// TestPollBeforeLeavesNewerCallbacks: PollBefore(e) runs what was queued
// before Epoch() returned e and nothing queued after — the bound a timer
// tick takes before it sweeps the TLB.
func TestPollBeforeLeavesNewerCallbacks(t *testing.T) {
	d := NewDomain(1)
	var older, newer atomic.Bool
	d.Defer(func() { older.Store(true) })
	e := d.Epoch()
	d.Defer(func() { newer.Store(true) })
	d.PollBefore(e)
	if !older.Load() || newer.Load() {
		t.Fatalf("PollBefore(e): older ran=%v, newer ran=%v; want true, false", older.Load(), newer.Load())
	}
	if st := d.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want the newer callback", st.Pending)
	}
	d.Poll()
	if !newer.Load() {
		t.Fatal("Poll did not run the newer callback")
	}
}

// TestDeferPutSteadyStateAllocatesNothing: once the domain has seen the
// workload's shape, queueing a frame free and polling it out reuses the
// pending list, the scratch list and the run lists.
func TestDeferPutSteadyStateAllocatesNothing(t *testing.T) {
	d := NewDomain(1)
	var sink nopPutter
	runs := []FrameRun{{Head: 1, N: 1}, {Head: 7, N: 1}, {Head: 3, N: 2}}
	cycle := func() {
		for i := 0; i < 8; i++ {
			d.DeferPut(sink, 0, runs)
		}
		d.Poll()
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("DeferPut ×8 + Poll allocates %.2f objects per run, want 0", got)
	}
}

type nopPutter struct{}

func (nopPutter) PutRun(int, arch.PFN, int) {}

// TestPollRacingDeferNoUseAfterFree: the poller is its own goroutine, so
// a callback can be queued — and a reader can enter — between a Poll's
// reader scan and its pass over the pending list. The scan runs under
// the pending-list lock for exactly this schedule: with the scan first,
// such a Poll saw "no readers", then found the new callback and freed
// the object under the new reader.
func TestPollRacingDeferNoUseAfterFree(t *testing.T) {
	const readers = 3
	d := NewDomain(readers)
	type obj struct{ alive atomic.Bool }
	var current atomic.Pointer[obj]
	first := &obj{}
	first.alive.Store(true)
	current.Store(first)

	var wg sync.WaitGroup
	var stop atomic.Bool
	var violations atomic.Int64
	for c := 0; c < readers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				d.ReadLock(c)
				o := current.Load()
				runtime.Gosched() // hold the object across a reschedule
				if !o.alive.Load() {
					violations.Add(1)
				}
				d.ReadUnlock(c)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.Poll()
		}
	}()
	for i := 0; i < 20000; i++ {
		next := &obj{}
		next.alive.Store(true)
		old := current.Swap(next)
		d.Defer(func() { old.alive.Store(false) })
	}
	stop.Store(true)
	wg.Wait()
	d.Barrier()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d use-after-free observations", v)
	}
}
