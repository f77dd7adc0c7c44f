package tlb_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/spec"
	"cortenmm/internal/tlb"
)

// TestReplayTLBStaleRead replays every tlb seeded-bug counterexample of
// the spec table against the real Machine. Each buggy model ends in a
// stale hit. Driving the real code through the same label sequence (a
// walk as FillBegin, a fill as InsertAt, delivery as the mode's real
// shootdown, a LATR sweep and quiesce as real Ticks, lookups as Lookup)
// must never reproduce it: no hit is older than the
// completed-invalidation watermark. After the trace every queued
// invalidation is drained and the watermark is checked again.
func TestReplayTLBStaleRead(t *testing.T) {
	for _, c := range spec.MutationCases() {
		if c.Family != "tlb" {
			continue
		}
		t.Run(c.Bug, func(t *testing.T) {
			res, err := c.Verify()
			if err != nil {
				t.Fatal(err)
			}
			// The trace must be deterministic — BFS reconstruction is
			// pure — or the replayed schedule would drift between runs.
			if again := spec.Check(c.Model, spec.MaxStates); strings.Join(again.Trace, " ") != strings.Join(res.Trace, " ") {
				t.Fatalf("counterexample trace not deterministic:\n%v\n%v", res.Trace, again.Trace)
			}
			t.Logf("replaying: %s", strings.Join(res.Trace, " "))
			replayTLB(t, c.Model.(*spec.TLBModel), res.Trace)
		})
	}
}

// tlbWatermark is the replay's view of the translations: the current
// version of each page, the highest version whose invalidation the real
// code has completed, and (LATR) the highest version queued for a
// sweep. The quiescer updates it concurrently with the reader.
type tlbWatermark struct {
	mu                     sync.Mutex
	ver, completed, queued [2]uint64
}

// complete records that the invalidations of every page up to the
// versions in upTo have completed.
func (w *tlbWatermark) complete(upTo [2]uint64) {
	w.mu.Lock()
	for p := range upTo {
		w.completed[p] = max(w.completed[p], upTo[p])
	}
	w.mu.Unlock()
}

// snapshot returns one of the watermark's arrays, read under its lock.
func (w *tlbWatermark) snapshot(a *[2]uint64) [2]uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return *a
}

func replayTLB(t *testing.T, model *spec.TLBModel, trace []string) {
	mode := map[spec.TLBMode]tlb.Mode{spec.TLBSync: tlb.ModeSync, spec.TLBEarlyAck: tlb.ModeEarlyAck, spec.TLBLATR: tlb.ModeLATR}[model.Mode]
	readers := len(model.Readers)
	const asid, initiator = tlb.ASID(7), 0
	sweeper := readers + 1 // reader i runs on core i+1
	m := tlb.NewMachine(readers+2, mode)
	vaOf := func(p int) arch.Vaddr { return arch.Vaddr(0x40000000) + arch.Vaddr(p)*arch.PageSize }
	pfnOf := func(p int, ver uint64) arch.PFN { return arch.PFN(uint64(p+1)*1_000_000 + ver) }
	shoot := func(p int, sync bool) {
		m.Shootdown(initiator, asid, []tlb.Range{{Lo: vaOf(p), Hi: vaOf(p) + arch.PageSize}}, sync)
	}
	pageArg := func(label string) int {
		arg := spec.LabelArg(label)
		if i := strings.LastIndexByte(arg, ','); i >= 0 {
			arg = arg[i+1:]
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 || n > 1 {
			t.Errorf("label %q names no model page", label) // on an actor's goroutine: no Fatal
			return 0
		}
		return n
	}
	var w tlbWatermark
	var parked []func()     // releases of reader cells held odd under a taken sweep
	var sweepTook [2]uint64 // what was queued when the sweeper took it
	swept, quiesced := make(chan struct{}), make(chan struct{})
	sweeping, quiescing := false, false
	release := func() {
		for _, unpark := range parked {
			unpark()
		}
		parked = nil
	}
	defer release()

	// check looks p up on reader core and holds any hit to the watermark.
	hits, misses := 0, 0
	check := func(reader, p int) error {
		tr, ok := m.Lookup(reader+1, asid, vaOf(p))
		if !ok {
			misses++
			return nil
		}
		hits++
		w.mu.Lock()
		defer w.mu.Unlock()
		if got := uint64(tr.PFN) - uint64(p+1)*1_000_000; got < w.completed[p] {
			return fmt.Errorf("real TLB served stale v%d of page %d; invalidation of v<=%d completed", got, p, w.completed[p])
		}
		return nil
	}

	r := spec.NewReplayer()
	r.Bind("m:unmap", "mutator", func(label string) error {
		w.mu.Lock()
		w.ver[pageArg(label)]++
		w.mu.Unlock()
		return nil
	})
	// The three delivery modes, one binding set each. A sync delivery and
	// an early-ack post are complete when the initiator returns.
	delivered := func(p int, sync bool) {
		shoot(p, sync)
		var upTo [2]uint64
		upTo[p] = w.snapshot(&w.ver)[p]
		w.complete(upTo)
	}
	r.Bind("m:deliver", "mutator", func(label string) error {
		delivered(pageArg(label), true)
		return nil
	})
	r.Bind("m:post", "mutator", func(label string) error {
		delivered(pageArg(label), false)
		return nil
	})
	// A LATR shootdown only queues; a sweep or a quiesce completes it.
	r.Bind("m:latr_queue", "mutator", func(label string) error {
		p := pageArg(label)
		shoot(p, false)
		w.mu.Lock()
		w.queued[p] = w.ver[p]
		w.mu.Unlock()
		return nil
	})
	// The sweeper takes the buffer and parks applying it: every reader
	// cell's seqlock is held odd, so the bump it owes spins (the trick of
	// TestLATRTickWaitsForInflightSweep).
	r.Bind("sw:take", "main", func(string) error {
		for i := 0; i < readers; i++ {
			parked = append(parked, m.ParkCell(i+1, asid))
		}
		sweepTook = w.snapshot(&w.queued)
		sweeping = true
		go func() {
			defer close(swept)
			m.Tick(sweeper)
		}()
		for !m.LATRTaken(initiator) {
			runtime.Gosched()
		}
		return nil
	})
	r.Bind("sw:apply", "main", func(string) error {
		release()
		<-swept
		w.complete(sweepTook)
		return nil
	})
	// A quiesce is every core's tick; it must not return while a sweep
	// it has to wait for is parked (waited for as in
	// TestLATRTickWaitsForInflightSweep: an event that must not come).
	r.Bind("q:quiesce", "main", func(string) error {
		upTo := w.snapshot(&w.queued)
		quiescing = true
		go func() {
			defer close(quiesced)
			for c := range m.NCores() {
				m.Tick(c)
			}
			w.complete(upTo)
		}()
		if len(parked) > 0 {
			select {
			case <-quiesced:
				return fmt.Errorf("quiesce returned while a taken sweep was parked")
			case <-time.After(50 * time.Millisecond):
			}
		}
		return nil
	})
	var fillGen, walked [2]uint64
	for i := 0; i < readers; i++ {
		rd := fmt.Sprintf("r%d:", i)
		r.Bind(rd+"walk", "reader", func(label string) error {
			fillGen[i] = m.FillBegin(i+1, asid)
			walked[i] = w.snapshot(&w.ver)[pageArg(label)]
			return nil
		})
		r.Bind(rd+"fill", "reader", func(label string) error {
			p := pageArg(label)
			m.InsertAt(i+1, asid, vaOf(p), pt.Translation{PFN: pfnOf(p, walked[i]), Perm: arch.PermRead, Level: 1}, fillGen[i])
			return nil
		})
		// Any lookup label (hit, miss, inv_miss, stale_hit).
		r.Bind(rd, "reader", func(label string) error {
			return check(i, pageArg(label))
		})
	}
	if err := r.Run(trace); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}

	// Drain: let a parked sweep finish, wait out a quiesce, tick every
	// core; then everything queued is complete and no reader may still
	// hit an invalidated version.
	release()
	if sweeping {
		<-swept
	}
	if quiescing {
		<-quiesced
	}
	for c := range m.NCores() {
		m.Tick(c)
	}
	w.complete(w.snapshot(&w.queued))
	for i := 0; i < readers; i++ {
		for p := range w.ver {
			if err := check(i, p); err != nil {
				t.Fatalf("after the drain: %v", err)
			}
		}
	}
	if hits+misses == 0 {
		t.Fatal("replay drove no lookups")
	}
	t.Logf("replayed %d labels: %d hits, %d misses, all fresh", len(trace), hits, misses)
}
