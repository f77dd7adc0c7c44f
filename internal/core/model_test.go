package core

import (
	"errors"
	"math/rand"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// refModel is the flat reference the functional-correctness property
// (P2, §5.2) is checked against: a map from page index to its logical
// state. If CortenMM's query/map/mark/unmap agree with this under long
// random op sequences, the radix-tree compression, splitting, and
// upper-level status storage are semantics-preserving.
type refModel struct {
	perm    map[arch.Vaddr]arch.Perm // allocated pages (logical perm)
	written map[arch.Vaddr]byte      // last byte stored at page base
}

func newRefModel() *refModel {
	return &refModel{perm: map[arch.Vaddr]arch.Perm{}, written: map[arch.Vaddr]byte{}}
}

// checkIterateMatchesQuery verifies the run-based Iterate against the
// per-page Query oracle over [lo, hi): runs must arrive in address
// order without overlap, and sliding each run's status page by page
// must reproduce exactly what Query reports — including the gaps, where
// Iterate stays silent and Query returns Invalid.
func checkIterateMatchesQuery(t *testing.T, c *RCursor, lo, hi arch.Vaddr) {
	t.Helper()
	byPage := map[arch.Vaddr]pt.Status{}
	prevEnd := lo
	err := c.Iterate(lo, hi, func(r Run) error {
		if r.Pages == 0 || r.VA < prevEnd || r.End() > hi {
			t.Fatalf("iterate: run [%#x,%#x) empty, out of order, or out of range", r.VA, r.End())
		}
		prevEnd = r.End()
		for i := uint64(0); i < r.Pages; i++ {
			st := r.Status.SlidBy(i)
			st.HugeLevel = 0 // Query reports per-page statuses without the leaf level
			byPage[r.VA+arch.Vaddr(i*arch.PageSize)] = st
		}
		return nil
	})
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	for va := lo; va < hi; va += arch.PageSize {
		want, err := c.Query(va)
		if err != nil {
			t.Fatalf("query %#x: %v", va, err)
		}
		if got := byPage[va]; got != want {
			t.Fatalf("iterate/query disagree at %#x: iterate=%+v query=%+v", va, got, want)
		}
	}
}

// checkChunksMatchModel verifies the enumeration every sweep reads
// against the flat oracle: chunks arrive in address order without
// overlap, each counts exactly the oracle's allocated pages inside its
// span, and together they account for every allocated page — so no
// allocated page lies outside a chunk.
func checkChunksMatchModel(t *testing.T, a *AddrSpace, allocated func(arch.Vaddr) bool, total int) {
	t.Helper()
	var end arch.Vaddr
	sum := 0
	for _, ch := range a.chunks(0) {
		if ch.base < end || ch.pages == 0 {
			t.Fatalf("chunk %+v empty or out of order (previous ended at %#x)", ch, end)
		}
		end = ch.base + arch.Vaddr(ch.span)
		n := 0
		for va := ch.base; va < end; va += arch.PageSize {
			if allocated(va) {
				n++
			}
		}
		if uint64(n) != ch.pages {
			t.Fatalf("chunk %+v counts %d pages, model has %d there", ch, ch.pages, n)
		}
		sum += n
	}
	if sum != total {
		t.Fatalf("chunks cover %d allocated pages, model has %d", sum, total)
	}
}

// TestReferenceModelEquivalence drives identical random operation
// sequences through CortenMM and the flat model and compares every
// observable: query status, access outcomes, and data.
func TestReferenceModelEquivalence(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC027E4))
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Destroy(0)
			ref := newRefModel()

			const (
				base   = arch.Vaddr(0x2000_0000)
				npages = 256
			)
			pageAt := func(i int) arch.Vaddr { return base + arch.Vaddr(i)*arch.PageSize }

			for step := 0; step < 3000; step++ {
				lo := rng.Intn(npages)
				n := 1 + rng.Intn(16)
				if lo+n > npages {
					n = npages - lo
				}
				switch rng.Intn(6) {
				case 0: // mmap fixed (only over fully free ranges)
					free := true
					for i := lo; i < lo+n; i++ {
						if _, ok := ref.perm[pageAt(i)]; ok {
							free = false
							break
						}
					}
					err := a.MmapFixed(0, pageAt(lo), uint64(n)*arch.PageSize, arch.PermRW, 0)
					if free != (err == nil) {
						t.Fatalf("step %d: mmapfixed free=%v err=%v", step, free, err)
					}
					if err == nil {
						for i := lo; i < lo+n; i++ {
							ref.perm[pageAt(i)] = arch.PermRW
						}
					}
				case 1: // munmap
					if err := a.Munmap(0, pageAt(lo), uint64(n)*arch.PageSize); err != nil {
						t.Fatalf("step %d: munmap: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						delete(ref.perm, pageAt(i))
						delete(ref.written, pageAt(i))
					}
				case 2: // mprotect
					want := arch.PermRead
					if rng.Intn(2) == 0 {
						want = arch.PermRW
					}
					if err := a.Mprotect(0, pageAt(lo), uint64(n)*arch.PageSize, want); err != nil {
						t.Fatalf("step %d: mprotect: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						if _, ok := ref.perm[pageAt(i)]; ok {
							ref.perm[pageAt(i)] = want
						}
					}
				case 3: // store
					va := pageAt(lo)
					b := byte(rng.Intn(256))
					err := a.Store(0, va, b)
					perm, ok := ref.perm[va]
					legal := ok && perm.Contains(arch.PermWrite)
					if legal != (err == nil) {
						t.Fatalf("step %d: store legal=%v err=%v (page %d perm %v)", step, legal, err, lo, perm)
					}
					if err == nil {
						ref.written[va] = b
					}
				case 4: // load
					va := pageAt(lo)
					got, err := a.Load(0, va)
					_, ok := ref.perm[va]
					if ok != (err == nil) {
						t.Fatalf("step %d: load mapped=%v err=%v", step, ok, err)
					}
					if err == nil {
						want := ref.written[va] // unwritten pages read 0
						if got != want {
							t.Fatalf("step %d: load page %d = %d, want %d", step, lo, got, want)
						}
					}
					if err != nil && !errors.Is(err, mm.ErrSegv) {
						t.Fatalf("step %d: unexpected error kind: %v", step, err)
					}
				case 5: // query through a transaction
					c, err := a.Lock(0, pageAt(lo), pageAt(lo+n))
					if err != nil {
						t.Fatalf("step %d: lock: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						st, err := c.Query(pageAt(i))
						if err != nil {
							t.Fatalf("step %d: query: %v", step, err)
						}
						perm, ok := ref.perm[pageAt(i)]
						if ok != st.Allocated() {
							t.Fatalf("step %d: query page %d allocated=%v, ref=%v", step, i, st.Allocated(), ok)
						}
						if ok {
							got := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared)
							if got != perm {
								t.Fatalf("step %d: query page %d perm=%v, ref=%v", step, i, got, perm)
							}
						}
					}
					checkIterateMatchesQuery(t, c, pageAt(lo), pageAt(lo+n))
					c.Close()
				}
				checkChunksMatchModel(t, a, func(va arch.Vaddr) bool {
					_, ok := ref.perm[va]
					return ok
				}, len(ref.perm))
			}
			checkWF(t, a)
		})
	}
}

// TestModelEquivalenceWithHugeRegions repeats the property over a space
// pre-marked as one giant region, forcing upper-level status storage
// and splits on every boundary.
func TestModelEquivalenceWithHugeRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Destroy(0)

	// One 8-MiB region: stored as few upper-level meta entries.
	base := arch.Vaddr(0x4000_0000)
	const npages = 2048
	if err := a.MmapFixed(0, base, npages*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	alive := map[int]bool{}
	for i := 0; i < npages; i++ {
		alive[i] = true
	}
	for step := 0; step < 400; step++ {
		i := rng.Intn(npages)
		va := base + arch.Vaddr(i)*arch.PageSize
		switch rng.Intn(3) {
		case 0:
			err := a.Store(0, va, byte(i))
			if alive[i] != (err == nil) {
				t.Fatalf("step %d: store alive=%v err=%v", step, alive[i], err)
			}
		case 1:
			if err := a.Munmap(0, va, arch.PageSize); err != nil {
				t.Fatal(err)
			}
			delete(alive, i)
		case 2:
			err := a.Touch(0, va, pt.AccessRead)
			if alive[i] != (err == nil) {
				t.Fatalf("step %d: touch alive=%v err=%v", step, alive[i], err)
			}
		}
		if step%100 == 99 {
			c, err := a.Lock(0, base, base+npages*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			checkIterateMatchesQuery(t, c, base, base+npages*arch.PageSize)
			c.Close()
			checkChunksMatchModel(t, a, func(va arch.Vaddr) bool {
				return va >= base && alive[int((va-base)/arch.PageSize)]
			}, len(alive))
		}
	}
	checkWF(t, a)
}
