package core

import (
	"math/rand"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/spec"
)

// agree reports whether an op's answer has the class the flat model
// (spec.Flat) gives.
func agree(got, want error) bool {
	c, ok := spec.Class(got)
	w, _ := spec.Class(want)
	return ok && c == w
}

// checkSpace compares everything observable of a against the flat model
// over the model's pages and the window [lo, hi): per page the status
// Query reports — allocation, logical permission, key, and the (file,
// index) a not-resident or page-cache-backed page names — then the bytes
// a load returns (which faults, and swaps, everything in), then Iterate
// against Query and the tree's well-formedness.
func checkSpace(t *testing.T, a *AddrSpace, core int, ref *spec.Flat, lo, hi arch.Vaddr) {
	t.Helper()
	phys := a.m.Phys
	check := func(c *RCursor, va arch.Vaddr) {
		st, err := c.Query(va)
		if err != nil {
			t.Fatalf("query %#x: %v", va, err)
		}
		p, ok := ref.Page(va)
		if ok != st.Allocated() {
			t.Fatalf("page %#x allocated=%v, model=%v", va, st.Allocated(), ok)
		}
		if !ok {
			return
		}
		if got := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared); got != p.Perm || st.Key() != p.Key {
			t.Fatalf("page %#x perm=%v key=%d, model %v key %d (%+v)", va, got, st.Key(), p.Perm, p.Key, st)
		}
		switch st.Kind {
		case pt.StatusPrivateFile, pt.StatusSharedFile, pt.StatusSharedAnon:
			if !p.FileBacked() || st.File(phys) != p.File.File || st.Off() != p.Idx || (st.Kind != pt.StatusPrivateFile) != p.Shared {
				t.Fatalf("page %#x is %+v (file %p), model %+v", va, st, st.File(phys), p)
			}
		case pt.StatusMapped:
			d := phys.Desc(phys.HeadOf(st.Page()))
			if p.FileBacked() != (d.RMap.File != nil) || p.FileBacked() && (d.RMap.File != p.File.File || d.RMap.Index != p.Idx) {
				t.Fatalf("page %#x maps frame %#x of (%p, %d), model %+v", va, st.Page(), d.RMap.File, d.RMap.Index, p)
			}
		default: // PrivateAnon, Swapped: private bytes
			if p.FileBacked() {
				t.Fatalf("page %#x is %+v, model has it backed by file page %d", va, st, p.Idx)
			}
		}
	}
	c, err := a.Lock(core, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for va := lo; va < hi; va += arch.PageSize {
		check(c, va)
	}
	checkIterateMatchesQuery(t, c, lo, hi)
	c.Close()
	for _, va := range ref.Live() {
		if va < lo || va >= hi {
			c, err := a.Lock(core, va, va+arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			check(c, va)
			c.Close()
		}
		got, err := a.Load(core, va)
		if want, werr := ref.Load(core, va); !agree(err, werr) || got != want {
			t.Fatalf("load %#x = %d, %v; model has %d, %v", va, got, err, want, werr)
		}
	}
	checkChunksMatchModel(t, a, ref)
	checkQuiet(t, a)
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
			if st.Kind == pt.StatusMapped {
				st = st.WithHuge(0) // Query reports per-page statuses without the leaf level
			}
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
// against the flat model: chunks arrive in address order without
// overlap, each counts exactly the model's live pages inside its span,
// and together they account for every live page — so no allocated page
// lies outside a chunk.
func checkChunksMatchModel(t *testing.T, a *AddrSpace, ref *spec.Flat) {
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
			if _, ok := ref.Page(va); ok {
				n++
			}
		}
		if uint64(n) != ch.pages {
			t.Fatalf("chunk %+v counts %d pages, model has %d there", ch, ch.pages, n)
		}
		sum += n
	}
	if sum != ref.Len() {
		t.Fatalf("chunks cover %d allocated pages, model has %d", sum, ref.Len())
	}
}

// TestReferenceModelEquivalence drives identical random operation
// sequences through CortenMM and the flat model and compares every
// observable: query status, access outcomes, and data. The stream mixes
// every status kind into one window — private anonymous memory, private
// and shared file mappings and shared-anonymous regions at non-zero page
// offsets, swapped pages — so each kind's payload crosses splits,
// push-downs, slides, Mremap moves and fork copies; every few hundred
// steps the space is compared in full, forked, and the previous child —
// which has sat beside its mutating parent since — compared and retired.
func TestReferenceModelEquivalence(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC027E4))
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
			a, err := New(Options{Machine: m, Protocol: p, ISA: arch.X8664(true)})
			if err != nil {
				t.Fatal(err)
			}
			ref := spec.NewFlat(m.Cores)

			const (
				base      = arch.Vaddr(0x2000_0000)
				npages    = 256
				filePages = 1 << 12
			)
			pageAt := func(i int) arch.Vaddr { return base + arch.Vaddr(i)*arch.PageSize }

			// Two files, each kept registered by a one-page anchor mapping
			// for the whole run: a named one, and the kernel-internal file
			// of a shared-anonymous region.
			named := spec.NewFlatFile(mem.NewFile(m.Phys, "data", filePages*arch.PageSize), filePages)
			anchor, err := a.MmapFile(0, named.File, 0, arch.PageSize, arch.PermRead, true)
			if err != nil {
				t.Fatal(err)
			}
			ref.MapFile(anchor, arch.PageSize, arch.PermRead, named, 0, true)
			shmVA, err := a.MmapSharedAnon(0, filePages*arch.PageSize, arch.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			c, err := a.Lock(0, shmVA, shmVA+arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := c.Query(shmVA)
			c.Close()
			shm := spec.NewFlatFile(st.File(m.Phys), filePages)
			if err := a.Munmap(0, shmVA+arch.PageSize, (filePages-1)*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			ref.MapFile(shmVA, arch.PageSize, arch.PermRW, shm, 0, true)

			var child *AddrSpace
			var childRef *spec.Flat
			retireChild := func() {
				if child != nil {
					checkSpace(t, child, 1, childRef, base, pageAt(npages))
					child.Destroy(1)
					child = nil
				}
			}
			for step := 0; step < 3000; step++ {
				lo := rng.Intn(npages)
				n := 1 + rng.Intn(16)
				if lo+n > npages {
					n = npages - lo
				}
				va, size := pageAt(lo), uint64(n)*arch.PageSize
				switch rng.Intn(10) {
				case 0: // mmap fixed (only over fully free ranges)
					err := a.MmapFixed(0, va, size, arch.PermRW, 0)
					if want := ref.MmapFixed(0, va, size, arch.PermRW); !agree(err, want) {
						t.Fatalf("step %d: mmapfixed = %v, model %v", step, err, want)
					}
				case 1: // munmap
					err := a.Munmap(0, va, size)
					if want := ref.Munmap(0, va, size); !agree(err, want) {
						t.Fatalf("step %d: munmap = %v, model %v", step, err, want)
					}
				case 2: // mprotect
					perm := arch.PermRead
					if rng.Intn(2) == 0 {
						perm = arch.PermRW
					}
					err := a.Mprotect(0, va, size, perm)
					if want := ref.Mprotect(0, va, size, perm); !agree(err, want) {
						t.Fatalf("step %d: mprotect = %v, model %v", step, err, want)
					}
				case 3: // store
					b := byte(rng.Intn(256))
					p, _ := ref.Page(va)
					err := a.Store(0, va, b)
					if want := ref.Store(0, va, b); !agree(err, want) {
						t.Fatalf("step %d: store = %v, model %v (page %d %+v)", step, err, want, lo, p)
					}
				case 4: // load
					got, err := a.Load(0, va)
					if want, werr := ref.Load(0, va); !agree(err, werr) || got != want {
						p, _ := ref.Page(va)
						t.Fatalf("step %d: load page %d = %d, %v; model %d, %v (%+v)", step, lo, got, err, want, werr, p)
					}
				case 5: // a file or shared-anonymous span marked over whatever was there
					file, kind, shared := named, pt.StatusPrivateFile, false
					switch rng.Intn(3) {
					case 1:
						kind, shared = pt.StatusSharedFile, true
					case 2:
						file, kind, shared = shm, pt.StatusSharedAnon, true
					}
					off := uint64(1 + rng.Intn(filePages-n))
					c, err := a.Lock(0, va, va+arch.Vaddr(size))
					if err != nil {
						t.Fatalf("step %d: lock: %v", step, err)
					}
					if err := c.Mark(va, va+arch.Vaddr(size), pt.FileStatus(kind, arch.PermRW, file.File, off)); err != nil {
						t.Fatalf("step %d: mark %v at file page %d: %v", step, kind, off, err)
					}
					c.Close()
					ref.MapFile(va, size, arch.PermRW, file, off, shared)
				case 6: // swap out what is private, anonymous and resident
					_, err := a.SwapOut(0, va, size)
					if want := ref.SwapOut(0, va, size); !agree(err, want) {
						t.Fatalf("step %d: swapout = %v, model %v", step, err, want)
					}
				case 7: // protection key
					key := arch.ProtKey(rng.Intn(int(arch.MaxProtKey) + 1))
					c, err := a.Lock(0, va, va+arch.Vaddr(size))
					if err != nil {
						t.Fatalf("step %d: lock: %v", step, err)
					}
					if err := c.SetProtKey(va, va+arch.Vaddr(size), key); err != nil {
						t.Fatalf("step %d: setprotkey: %v", step, err)
					}
					c.Close()
					ref.SetProtKey(va, size, key)
				case 8: // grow: everything in the range moves out of the window
					grown := size + uint64(1+rng.Intn(4))*arch.PageSize
					// A range with a page nothing allocated is refused and
					// stays as it was (Linux: EFAULT).
					nva, err := a.Mremap(0, va, size, grown)
					if want := ref.Mremap(0, va, size, grown, nva); !agree(err, want) {
						t.Fatalf("step %d: mremap = %#x, %v; model %v", step, nva, err, want)
					}
					if err != nil {
						break
					}
					// Compared where it landed, then unmapped: the stream
					// stays in its window.
					for mva := nva; mva < nva+arch.Vaddr(grown); mva += arch.PageSize {
						got, err := a.Load(0, mva)
						if want, werr := ref.Load(0, mva); !agree(err, werr) || got != want {
							t.Fatalf("step %d: moved page %#x = %d, %v; model %d, %v", step, mva, got, err, want, werr)
						}
					}
					err = a.Munmap(0, nva, grown)
					if want := ref.Munmap(0, nva, grown); !agree(err, want) {
						t.Fatalf("step %d: munmap of the moved range = %v, model %v", step, err, want)
					}
				case 9: // query through a transaction
					c, err := a.Lock(0, va, va+arch.Vaddr(size))
					if err != nil {
						t.Fatalf("step %d: lock: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						st, err := c.Query(pageAt(i))
						if err != nil {
							t.Fatalf("step %d: query: %v", step, err)
						}
						p, ok := ref.Page(pageAt(i))
						if ok != st.Allocated() {
							t.Fatalf("step %d: query page %d allocated=%v, ref=%v", step, i, st.Allocated(), ok)
						}
						if got := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared); ok && (got != p.Perm || st.Key() != p.Key) {
							t.Fatalf("step %d: query page %d perm=%v key=%d, ref=%v key %d", step, i, got, st.Key(), p.Perm, p.Key)
						}
					}
					checkIterateMatchesQuery(t, c, va, va+arch.Vaddr(size))
					c.Close()
				}
				checkChunksMatchModel(t, a, ref)
				if step%300 == 299 {
					// Whatever is not resident stays so — a swapped page
					// shares its block — and the child inherits it as
					// copied status words. The parent is compared in full
					// now, the child one period of parent mutations later.
					retireChild()
					forked, err := a.Fork(0)
					if err != nil {
						t.Fatalf("step %d: fork: %v", step, err)
					}
					child, childRef = forked.(*AddrSpace), ref.Clone()
					checkSpace(t, a, 0, ref, base, pageAt(npages))
				}
			}
			retireChild()
			checkSpace(t, a, 0, ref, base, pageAt(npages))
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestModelEquivalenceWithHugeRegions repeats the property over a space
// pre-marked as one giant huge-page region, forcing upper-level status
// storage, huge faults, and splits — of marked spans and of huge leaves —
// on every boundary.
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
	if err := a.MmapFixed(0, base, npages*arch.PageSize, arch.PermRW, mm.FlagHuge2M); err != nil {
		t.Fatal(err)
	}
	ref := spec.NewFlat(m.Cores)
	if err := ref.MmapFixed(0, base, npages*arch.PageSize, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		i := rng.Intn(npages)
		va := base + arch.Vaddr(i)*arch.PageSize
		switch rng.Intn(3) {
		case 0:
			err := a.Store(0, va, byte(i))
			if want := ref.Store(0, va, byte(i)); !agree(err, want) {
				t.Fatalf("step %d: store = %v, model %v", step, err, want)
			}
		case 1:
			err := a.Munmap(0, va, arch.PageSize)
			if want := ref.Munmap(0, va, arch.PageSize); !agree(err, want) {
				t.Fatalf("step %d: munmap = %v, model %v", step, err, want)
			}
		case 2:
			got, err := a.Load(0, va)
			if want, werr := ref.Load(0, va); !agree(err, werr) || got != want {
				t.Fatalf("step %d: load = %d, %v; model %d, %v", step, got, err, want, werr)
			}
		}
		if step%100 == 99 {
			c, err := a.Lock(0, base, base+npages*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			checkIterateMatchesQuery(t, c, base, base+npages*arch.PageSize)
			c.Close()
			checkChunksMatchModel(t, a, ref)
		}
	}
	checkWF(t, a)
}
