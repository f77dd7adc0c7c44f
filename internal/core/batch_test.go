package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestBatchBasic drives the ring end to end: an allocated mmap plus a
// populate coalesce into one transaction, the mapping is usable, and a
// batched munmap recycles the VA range.
func TestBatchBasic(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)

			b := a.NewBatch(0)
			va, err := b.Mmap(16*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Populate(va, 16*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			cqes := b.Submit()
			if len(cqes) != 2 {
				t.Fatalf("got %d CQEs, want 2", len(cqes))
			}
			for i, c := range cqes {
				if c.Err != nil {
					t.Fatalf("cqe %d (%s): %v", i, c.Kind, c.Err)
				}
			}
			if err := a.Store(0, va, 7); err != nil {
				t.Fatalf("store after batched mmap: %v", err)
			}
			if got, err := a.Load(0, va); err != nil || got != 7 {
				t.Fatalf("load = %d, %v", got, err)
			}

			if err := b.Munmap(va, 16*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			if cqes := b.Submit(); cqes[0].Err != nil {
				t.Fatalf("batched munmap: %v", cqes[0].Err)
			}
			if _, err := a.Load(0, va); !errors.Is(err, mm.ErrSegv) {
				t.Fatalf("load after batched munmap: %v", err)
			}
			st := a.BatchStats()
			if st.Batches != 2 || st.Ops != 3 {
				t.Fatalf("stats = %+v", st)
			}
			// The mmap+populate pair shared one range: one group, one
			// saved lock acquisition.
			if st.Groups != 2 || st.CoalescedLocks != 1 {
				t.Fatalf("coalescing stats = %+v", st)
			}
			checkWF(t, a)
		})
	}
}

// TestBatchMunmapRecyclesPerOp: the unmaps of one coalesced group share
// a cursor, and each recycles its VA range iff its own Unmap found the
// range fully allocated — not a repeated unmap, not one over a range
// with a hole.
func TestBatchMunmapRecyclesPerOp(t *testing.T) {
	const size = 4 * arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			mmap := func(sz uint64) arch.Vaddr {
				t.Helper()
				va, err := a.Mmap(0, sz, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				return va
			}
			// Three adjacent bump allocations; the third gets a hole.
			full1, full2, holed := mmap(size), mmap(size), mmap(size)
			if err := a.Munmap(0, holed+arch.PageSize, arch.PageSize); err != nil {
				t.Fatal(err)
			}
			b := a.NewBatch(0)
			for _, va := range []arch.Vaddr{full1, full2, holed, full1} {
				if err := b.Munmap(va, size); err != nil {
					t.Fatal(err)
				}
			}
			for i, c := range b.Submit() {
				if c.Err != nil {
					t.Fatalf("cqe %d: %v", i, c.Err)
				}
			}
			if st := a.BatchStats(); st.Groups != 1 {
				t.Fatalf("unmaps ran as %d groups, want one coalesced cursor", st.Groups)
			}
			got := []arch.Vaddr{mmap(size), mmap(size), mmap(size)}
			if !(got[0] == full2 && got[1] == full1 || got[0] == full1 && got[1] == full2) {
				t.Errorf("fully allocated ranges %#x, %#x not recycled once each: got %#x", full1, full2, got)
			}
			if got[2] <= holed {
				t.Errorf("third mmap = %#x: recycled the holed range %#x or a range twice", got[2], holed)
			}
			checkWF(t, a)
		})
	}
}

// TestBatchPartialFailurePrecision submits a batch where exactly one op
// must fail (a fixed mmap over an existing mapping) and asserts the
// error lands in that op's CQE alone, with every other op applied.
func TestBatchPartialFailurePrecision(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			base := arch.Vaddr(0x4000_0000)
			if err := a.MmapFixed(0, base, 8*arch.PageSize, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}

			b := a.NewBatch(0)
			// Op 0: collides with the existing mapping.
			if err := b.MmapFixed(base+4*arch.PageSize, 8*arch.PageSize, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			// Op 1: disjoint, must succeed.
			if err := b.MmapFixed(base+0x100000, 8*arch.PageSize, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			// Op 2: protect the existing mapping, must succeed.
			if err := b.Mprotect(base, 8*arch.PageSize, arch.PermRead); err != nil {
				t.Fatal(err)
			}
			cqes := b.Submit()
			if !errors.Is(cqes[0].Err, mm.ErrExists) {
				t.Fatalf("cqe 0 = %v, want ErrExists", cqes[0].Err)
			}
			if cqes[1].Err != nil || cqes[2].Err != nil {
				t.Fatalf("innocent ops failed: %v / %v", cqes[1].Err, cqes[2].Err)
			}
			if err := a.Store(0, base, 1); !errors.Is(err, mm.ErrSegv) {
				t.Fatalf("mprotect not applied: %v", err)
			}
			if err := a.Store(0, base+0x100000, 1); err != nil {
				t.Fatalf("disjoint mmap not applied: %v", err)
			}
			checkWF(t, a)
		})
	}
}

// TestBatchCoalescedShootdown is the acceptance-criterion counter
// check: unmapping one 512-page region as 64 batched chunks must emit
// exactly one TLB fan-out (vs 64 one-op-per-call), with the lock
// protocol run once.
func TestBatchCoalescedShootdown(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			const pages = 512 // exactly one L1 table
			base := arch.Vaddr(0x4000_0000)
			if err := a.MmapFixed(0, base, pages*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
				t.Fatal(err)
			}

			before := a.m.TLB.Stats().Shootdowns
			b := a.NewBatch(0)
			const chunk = pages / 64
			for i := 0; i < 64; i++ {
				va := base + arch.Vaddr(i*chunk*arch.PageSize)
				if err := b.Munmap(va, chunk*arch.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			for i, cqe := range b.Submit() {
				if cqe.Err != nil {
					t.Fatalf("chunk %d: %v", i, cqe.Err)
				}
			}
			if d := a.m.TLB.Stats().Shootdowns - before; d != 1 {
				t.Fatalf("batch emitted %d fan-outs, want 1", d)
			}
			st := a.BatchStats()
			if st.Groups != 1 || st.CoalescedLocks != 63 {
				t.Fatalf("expected 64 ops to coalesce into 1 group: %+v", st)
			}
			if st.Shootdowns != 1 || st.Shootdowns > st.Groups {
				t.Fatalf("fan-outs exceed coalesced groups: %+v", st)
			}
			for i := 0; i < pages; i++ {
				if _, err := a.Load(0, base+arch.Vaddr(i*arch.PageSize)); !errors.Is(err, mm.ErrSegv) {
					t.Fatalf("page %d survived batched munmap: %v", i, err)
				}
			}
			checkWF(t, a)
		})
	}
}

// batchRoundOps generates one round of random ops over a fixed window
// and applies them twice: batched on ba, sequentially on sa. Returns
// per-op success bits for both paths.
func batchRound(rng *rand.Rand, ba, sa *AddrSpace, base arch.Vaddr, npages int) (bok, sok []bool, err error) {
	type op struct {
		kind BatchKind
		lo   int
		n    int
		perm arch.Perm
	}
	nops := 1 + rng.Intn(12)
	ops := make([]op, nops)
	for i := range ops {
		o := op{kind: BatchKind(rng.Intn(6)), lo: rng.Intn(npages), n: 1 + rng.Intn(16)}
		if o.lo+o.n > npages {
			o.n = npages - o.lo
		}
		o.perm = arch.PermRW
		if rng.Intn(2) == 0 {
			o.perm = arch.PermRead
		}
		ops[i] = o
	}
	b := ba.NewBatch(0)
	for _, o := range ops {
		va := base + arch.Vaddr(o.lo)*arch.PageSize
		size := uint64(o.n) * arch.PageSize
		var e error
		switch o.kind {
		case BatchMmap:
			e = b.MmapFixed(va, size, o.perm, 0)
		case BatchMunmap:
			e = b.Munmap(va, size)
		case BatchMprotect:
			e = b.Mprotect(va, size, o.perm)
		case BatchMadvise:
			e = b.Madvise(va, size)
		case BatchMsync:
			e = b.Msync(va, size)
		case BatchPopulate:
			e = b.Populate(va, size)
		}
		if e != nil {
			return nil, nil, e
		}
	}
	for _, c := range b.Submit() {
		bok = append(bok, c.Err == nil)
	}
	for _, o := range ops {
		va := base + arch.Vaddr(o.lo)*arch.PageSize
		size := uint64(o.n) * arch.PageSize
		var e error
		switch o.kind {
		case BatchMmap:
			e = sa.MmapFixed(0, va, size, o.perm, 0)
		case BatchMunmap:
			e = sa.Munmap(0, va, size)
		case BatchMprotect:
			e = sa.Mprotect(0, va, size, o.perm)
		case BatchMadvise:
			e = sa.MadviseDontNeed(0, va, size)
		case BatchMsync:
			e = sa.Msync(0, va, size)
		case BatchPopulate:
			e = sa.PopulateRange(0, va, size)
		}
		sok = append(sok, e == nil)
	}
	return bok, sok, nil
}

// comparePages asserts both spaces report identical logical state for
// every page of the window: allocation, kind, and logical permissions.
func comparePages(t *testing.T, ba, sa *AddrSpace, base arch.Vaddr, npages int) {
	t.Helper()
	bc, err := ba.Lock(0, base, base+arch.Vaddr(npages)*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	sc, err := sa.Lock(0, base, base+arch.Vaddr(npages)*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i := 0; i < npages; i++ {
		va := base + arch.Vaddr(i)*arch.PageSize
		bst, err := bc.Query(va)
		if err != nil {
			t.Fatal(err)
		}
		sst, err := sc.Query(va)
		if err != nil {
			t.Fatal(err)
		}
		if bst.Allocated() != sst.Allocated() {
			t.Fatalf("page %d: batched allocated=%v sequential=%v", i, bst.Allocated(), sst.Allocated())
		}
		if !bst.Allocated() {
			continue
		}
		// Resident vs not may differ transiently (populate is
		// best-effort identical here since both paths populate), so
		// compare the logical view: a Mapped page's logical kind is
		// its backing anon status.
		bkind, skind := bst.Kind, sst.Kind
		if bkind == pt.StatusMapped {
			bkind = pt.StatusPrivateAnon
		}
		if skind == pt.StatusMapped {
			skind = pt.StatusPrivateAnon
		}
		if bkind != skind {
			t.Fatalf("page %d: batched kind=%v sequential=%v", i, bst.Kind, sst.Kind)
		}
		bp := logicalPerm(bst.Perm) &^ (arch.PermCOW | arch.PermShared)
		sp := logicalPerm(sst.Perm) &^ (arch.PermCOW | arch.PermShared)
		if bp != sp {
			t.Fatalf("page %d: batched perm=%v sequential=%v", i, bp, sp)
		}
		if (bst.Kind == pt.StatusMapped) != (sst.Kind == pt.StatusMapped) {
			t.Fatalf("page %d: residency differs: batched=%v sequential=%v", i, bst.Kind, sst.Kind)
		}
	}
}

// TestBatchSequentialEquivalence is the property test: for random op
// sequences, batched Submit ends in a tree state identical to executing
// the same ops one syscall at a time, per-op outcomes agree, and so do the
// mmap, munmap and mprotect counts.
func TestBatchSequentialEquivalence(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBA7C4))
			bm := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
			sm := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
			ba, err := New(Options{Machine: bm, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			sa, err := New(Options{Machine: sm, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer ba.Destroy(0)
			defer sa.Destroy(0)

			const (
				base   = arch.Vaddr(0x2000_0000)
				npages = 256
			)
			for round := 0; round < 300; round++ {
				bok, sok, err := batchRound(rng, ba, sa, base, npages)
				if err != nil {
					t.Fatalf("round %d: enqueue: %v", round, err)
				}
				for i := range bok {
					if bok[i] != sok[i] {
						t.Fatalf("round %d op %d: batched ok=%v sequential ok=%v", round, i, bok[i], sok[i])
					}
				}
				// The ring counts through the syscalls' counter: one per op.
				bs, ss := ba.Stats().Snapshot(), sa.Stats().Snapshot()
				if bs.Mmaps != ss.Mmaps || bs.Munmaps != ss.Munmaps || bs.Mprotects != ss.Mprotects {
					t.Fatalf("round %d: batched mmaps/munmaps/mprotects %d/%d/%d, sequential %d/%d/%d",
						round, bs.Mmaps, bs.Munmaps, bs.Mprotects, ss.Mmaps, ss.Munmaps, ss.Mprotects)
				}
				if round%20 == 19 {
					comparePages(t, ba, sa, base, npages)
				}
			}
			comparePages(t, ba, sa, base, npages)
			checkWF(t, ba)
			checkWF(t, sa)
		})
	}
}

// TestBatchEquivalenceConcurrent repeats the property while other cores
// hammer a disjoint region of the batched space with faults and stores
// — batch commits must not disturb concurrent transactions, and vice
// versa. Run under -race in CI.
func TestBatchEquivalenceConcurrent(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xFACE))
			bm := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
			sm := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
			ba, err := New(Options{Machine: bm, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			sa, err := New(Options{Machine: sm, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer ba.Destroy(0)
			defer sa.Destroy(0)

			const (
				base   = arch.Vaddr(0x2000_0000)
				npages = 128
				side   = arch.Vaddr(0x6000_0000)
			)
			if err := ba.MmapFixed(0, side, 64*arch.PageSize, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for core := 1; core <= 3; core++ {
				core := core
				wg.Add(1)
				go func() {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						va := side + arch.Vaddr(i%64)*arch.PageSize
						// Each core owns a distinct byte of the page: the
						// cores contend on mappings and TLB state, not on
						// user data (racy user bytes are UB to the racer).
						if err := ba.Store(core, va+arch.Vaddr(core*64), byte(i)); err != nil {
							t.Errorf("faulter store: %v", err)
							return
						}
						if i%7 == 0 {
							if err := ba.MadviseDontNeed(core, va, arch.PageSize); err != nil {
								t.Errorf("faulter madvise: %v", err)
								return
							}
						}
						i++
					}
				}()
			}
			for round := 0; round < 80; round++ {
				bok, sok, err := batchRound(rng, ba, sa, base, npages)
				if err != nil {
					t.Fatalf("round %d: enqueue: %v", round, err)
				}
				for i := range bok {
					if bok[i] != sok[i] {
						t.Fatalf("round %d op %d: batched ok=%v sequential ok=%v", round, i, bok[i], sok[i])
					}
				}
			}
			close(stop)
			wg.Wait()
			comparePages(t, ba, sa, base, npages)
			checkWF(t, ba)
			checkWF(t, sa)
		})
	}
}
