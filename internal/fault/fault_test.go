package fault

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

func TestDisabledNeverFires(t *testing.T) {
	DisarmAll()
	s := MemAllocFrame
	if !slices.Contains(Sites(), s) {
		t.Fatal("canonical site not registered")
	}
	for i := 0; i < 1000; i++ {
		if s.Fire() {
			t.Fatal("disarmed site fired")
		}
	}
	if c, f := s.Stats(); c != 0 || f != 0 {
		t.Fatalf("disarmed checks counted: checked=%d fired=%d", c, f)
	}
}

func TestAlwaysFire(t *testing.T) {
	s := New("test.always")
	s.Arm(Config{Seed: 1})
	defer s.Disarm()
	for i := 0; i < 10; i++ {
		if !s.Fire() {
			t.Fatalf("check %d did not fire with Prob=1", i)
		}
	}
	if c, f := s.Stats(); c != 10 || f != 10 {
		t.Fatalf("stats: checked=%d fired=%d, want 10/10", c, f)
	}
}

func TestAfterN(t *testing.T) {
	s := New("test.after")
	s.Arm(Config{Seed: 7, AfterN: 3})
	defer s.Disarm()
	for i := 0; i < 3; i++ {
		if s.Fire() {
			t.Fatalf("check %d fired before AfterN elapsed", i)
		}
	}
	if !s.Fire() {
		t.Fatal("check 3 did not fire after AfterN elapsed")
	}
}

func TestProbDeterministic(t *testing.T) {
	s := New("test.prob")
	run := func(seed uint64) []bool {
		s.Arm(Config{Seed: seed, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = s.Fire()
		}
		s.Disarm()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at check %d", i)
		}
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d times", fires, len(a))
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing patterns")
	}
}

func TestConcurrentChecks(t *testing.T) {
	s := New("test.concurrent")
	s.Arm(Config{Seed: 9, Prob: 0.5})
	defer s.Disarm()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Fire()
			}
		}()
	}
	wg.Wait()
	c, f := s.Stats()
	if c != goroutines*per {
		t.Fatalf("checked=%d, want %d", c, goroutines*per)
	}
	if f == 0 || f == c {
		t.Fatalf("fired=%d of %d with Prob=0.5", f, c)
	}
}

// TestParkedPoint: a parked Delay point stops exactly the first goroutine
// that reaches it, until Release; later arrivals pass, and Disarm drops a
// parking nobody reached.
func TestParkedPoint(t *testing.T) {
	s := NewPoint("test.park")
	if s.Kind() != Delay || MemAllocFrame.Kind() != Fail || TLBShootdownDelay.Kind() != Delay {
		t.Fatal("declared kinds not reported")
	}
	p := s.Park()
	defer s.Disarm()
	passed := make(chan struct{})
	go func() {
		s.Pause()
		close(passed)
	}()
	p.Await()
	s.Pause() // a second arrival only yields
	select {
	case <-passed:
		t.Fatal("parked goroutine passed before Release")
	default:
	}
	p.Release()
	<-passed

	s.Park()
	s.Disarm()
	s.Pause() // must not block: the parking was dropped
}

func TestErrorf(t *testing.T) {
	base := errors.New("boom")
	s := New("test.errorf")
	err := s.Errorf(base)
	if !errors.Is(err, base) {
		t.Fatal("Errorf broke the error chain")
	}
}
