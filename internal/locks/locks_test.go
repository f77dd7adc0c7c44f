package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hammerMutex checks mutual exclusion by having workers increment a
// counter that is only consistent when protected. Every other
// acquisition tries TryLock first and queues only when that fails, so
// the two entries are mixed on one lock.
func hammerMutex(t *testing.T, l Mutex, workers, iters int) {
	t.Helper()
	var shared int64 // plain int: data race unless the lock works
	var inCS atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 || !l.TryLock() {
					l.Lock()
				}
				if n := inCS.Add(1); n != 1 {
					t.Errorf("mutual exclusion violated: %d in CS", n)
				}
				shared++
				inCS.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != int64(workers*iters) {
		t.Errorf("shared = %d, want %d", shared, workers*iters)
	}
}

func TestMCSMutualExclusion(t *testing.T)    { hammerMutex(t, new(MCS), 8, 2000) }
func TestTicketMutualExclusion(t *testing.T) { hammerMutex(t, new(Ticket), 8, 2000) }

func TestMCSTryLock(t *testing.T) {
	l := new(MCS)
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestTicketTryLock(t *testing.T) {
	l := new(Ticket)
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

// atRest reports whether a queue node is as Unlock must leave it.
func atRest(n *mcsNode) bool { return n.next.Load() == nil && !n.locked.Load() }

// TestMCSHandoffWhileEnqueueing forces the branch of Unlock that finds
// no successor linked and the tail already moved: a waiter has swapped
// itself in and not yet written pred.next. The test plays the waiter
// step by step. Unlock cannot return before the link whenever it runs;
// the pause only makes it likely to be spinning by then.
func TestMCSHandoffWhileEnqueueing(t *testing.T) {
	l := new(MCS)
	l.Lock() // uncontended: the embedded node
	n := new(mcsNode)
	pred := l.tail.Swap(n)
	if pred != &l.own {
		t.Fatal("the uncontended owner is not on the embedded node")
	}
	n.locked.Store(true)

	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		close(started)
		l.Unlock()
		close(done)
	}()
	<-started
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Unlock returned before its successor had linked itself")
	default:
	}
	pred.next.Store(n)
	<-done
	if n.locked.Load() {
		t.Error("the lock was not handed to the linked successor")
	}
	if !atRest(&l.own) {
		t.Error("the embedded node was handed over dirty")
	}
	if l.TryLock() {
		t.Error("TryLock succeeded while the successor holds the lock")
	}
	l.holder = n // what lockSlow does once its spin ends
	l.Unlock()
	if !atRest(n) || l.tail.Load() != nil {
		t.Error("the successor's release left its node or the tail dirty")
	}
	hammerMutex(t, l, 4, 500) // and the lock still works
}

// TestMCSNodeAtRestIsClean: the uncontended path writes no node field,
// which is sound only if every node at rest — embedded in an idle lock,
// or back in the pool — has next == nil and locked == false whatever
// sequence of Lock, Unlock and failed TryLock came before.
func TestMCSNodeAtRestIsClean(t *testing.T) {
	lks := make([]MCS, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				l := &lks[(w+i)%len(lks)]
				switch i % 3 {
				case 0:
					l.Lock()
					l.Unlock()
				case 1:
					if l.TryLock() {
						l.Unlock()
					}
				default:
					l.Lock()
					if l.TryLock() { // always fails: a failed TryLock must touch no node
						t.Error("TryLock on a held lock succeeded")
					}
					l.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range lks {
		if l := &lks[i]; !atRest(&l.own) || l.tail.Load() != nil || l.holder != nil {
			t.Errorf("lock %d is not clean when idle", i)
		}
	}
	// Whatever the pool still holds (it may have dropped some, and hands
	// out fresh nodes once empty — those are clean by construction).
	for i := 0; i < 64; i++ {
		if n := mcsPool.Get().(*mcsNode); !atRest(n) {
			t.Fatalf("pooled node %d is dirty: next=%p locked=%v", i, n.next.Load(), n.locked.Load())
		}
	}
}

func TestMCSUnlockUnlocked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unlock of unlocked MCS did not panic")
		}
	}()
	new(MCS).Unlock()
}

// hammerRW checks that writers are exclusive and readers see consistent
// state (two fields always updated together under the write lock).
func hammerRW(t *testing.T, l RWLock, cores, iters int) {
	t.Helper()
	var a, b int64
	var writersIn atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%4 == 0 { // 25% writes
					l.Lock(c)
					if n := writersIn.Add(1); n != 1 {
						t.Errorf("writer exclusion violated: %d writers", n)
					}
					a++
					b++
					writersIn.Add(-1)
					l.Unlock(c)
				} else {
					l.RLock(c)
					if writersIn.Load() != 0 {
						t.Error("reader overlapped a writer")
					}
					if a != b {
						t.Errorf("inconsistent read: a=%d b=%d", a, b)
					}
					l.RUnlock(c)
				}
			}
		}()
	}
	wg.Wait()
}

func TestPhaseFair(t *testing.T) { hammerRW(t, new(PhaseFair), 8, 2000) }

func TestBRAVO(t *testing.T) { hammerRW(t, NewBRAVO(new(PhaseFair), 8), 8, 2000) }

func TestBRAVOReadFastPath(t *testing.T) {
	b := NewBRAVO(new(PhaseFair), 4)
	// Pure-reader phase uses slots only.
	b.RLock(0)
	if !b.slots[0].flag.Load() {
		t.Error("reader did not publish in slot while biased")
	}
	b.RLock(1)
	b.RUnlock(1)
	b.RUnlock(0)
	if b.slots[0].flag.Load() {
		t.Error("slot not cleared on RUnlock")
	}
}

func TestBRAVORevocation(t *testing.T) {
	b := NewBRAVO(new(PhaseFair), 4)
	b.RLock(0) // biased fast-path reader
	done := make(chan struct{})
	go func() {
		b.Lock(1) // must wait for the visible reader
		b.Unlock(1)
		close(done)
	}()
	// Writer cannot finish while the reader is visible.
	select {
	case <-done:
		t.Fatal("writer acquired lock while visible reader held it")
	default:
	}
	b.RUnlock(0)
	<-done
	if b.rbias.Load() {
		t.Error("bias not revoked immediately after writer")
	}
	// Post-revocation readers fall back to the underlying lock and still work.
	b.RLock(2)
	b.RUnlock(2)
}

func TestPhaseFairWriterFIFO(t *testing.T) {
	l := new(PhaseFair)
	l.Lock(0)
	order := make(chan int, 2)
	started := make(chan struct{}, 2)
	go func() { started <- struct{}{}; l.Lock(1); order <- 1; l.Unlock(1) }()
	<-started
	// Give writer 1 time to take its ticket before writer 2.
	for l.win.Load() != 2 {
	}
	go func() { started <- struct{}{}; l.Lock(2); order <- 2; l.Unlock(2) }()
	<-started
	for l.win.Load() != 3 {
	}
	l.Unlock(0)
	if first := <-order; first != 1 {
		t.Errorf("writer order violated: %d acquired first", first)
	}
	<-order
}

func BenchmarkMCSUncontended(b *testing.B) {
	l := new(MCS)
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

func BenchmarkTicketUncontended(b *testing.B) {
	l := new(Ticket)
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

func BenchmarkPhaseFairRead(b *testing.B) {
	l := new(PhaseFair)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.RLock(0)
			l.RUnlock(0)
		}
	})
}

func BenchmarkBRAVORead(b *testing.B) {
	l := NewBRAVO(new(PhaseFair), 64)
	var core atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		c := int(core.Add(1)-1) % 64
		for pb.Next() {
			l.RLock(c)
			l.RUnlock(c)
		}
	})
}
