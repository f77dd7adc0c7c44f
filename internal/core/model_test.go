package core

import (
	"errors"
	"math/rand"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// refModel is the flat reference the functional-correctness property
// (P2, §5.2) is checked against: a map from virtual page to its logical
// state — permission, key, and what backs it: private bytes, or a page
// of a file shared with every other mapping of it. If CortenMM's
// query/map/mark/unmap agree with this under long random op sequences,
// the radix-tree compression, splitting, upper-level status storage and
// the status word's payload arithmetic are semantics-preserving.
type refModel struct {
	pages map[arch.Vaddr]refPage
}

// refFile is a file as the model sees it: the byte at the start of each
// of its pages.
type refFile struct {
	f     *mem.File
	bytes map[uint64]byte
}

type refPage struct {
	perm arch.Perm // logical
	key  arch.ProtKey
	// file and idx name the backing file page; nil for anonymous memory.
	file *refFile
	idx  uint64
	// shared mappings write through to the file; private ones copy on
	// their first write, after which own holds and b is the content
	// (anonymous pages only ever have b).
	shared, own bool
	b           byte
}

func newRefModel() *refModel { return &refModel{pages: map[arch.Vaddr]refPage{}} }

// load is what a read of va must return.
func (r *refModel) load(va arch.Vaddr) byte {
	if p := r.pages[va]; p.file != nil && !p.own {
		return p.file.bytes[p.idx]
	}
	return r.pages[va].b
}

// store records a legal write of b to va.
func (r *refModel) store(va arch.Vaddr, b byte) {
	p := r.pages[va]
	if p.file != nil && p.shared {
		p.file.bytes[p.idx] = b
		return
	}
	p.own, p.b = true, b
	r.pages[va] = p
}

func (r *refModel) allocated(va arch.Vaddr) bool { _, ok := r.pages[va]; return ok }

// clone is the model of a fork: private state copied, files shared.
func (r *refModel) clone() *refModel {
	c := newRefModel()
	for va, p := range r.pages {
		c.pages[va] = p
	}
	return c
}

// checkSpace compares everything observable of a against the model over
// the model's pages and the window [lo, hi): per page the status Query
// reports — allocation, logical permission, key, and the (file, index) a
// not-resident or page-cache-backed page names — then the bytes a load
// returns (which faults, and swaps, everything in), then Iterate against
// Query and the tree's well-formedness.
func checkSpace(t *testing.T, a *AddrSpace, core int, ref *refModel, lo, hi arch.Vaddr) {
	t.Helper()
	phys := a.m.Phys
	check := func(c *RCursor, va arch.Vaddr) {
		st, err := c.Query(va)
		if err != nil {
			t.Fatalf("query %#x: %v", va, err)
		}
		p, ok := ref.pages[va]
		if ok != st.Allocated() {
			t.Fatalf("page %#x allocated=%v, model=%v", va, st.Allocated(), ok)
		}
		if !ok {
			return
		}
		if got := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared); got != p.perm || st.Key() != p.key {
			t.Fatalf("page %#x perm=%v key=%d, model %v key %d (%+v)", va, got, st.Key(), p.perm, p.key, st)
		}
		fileBacked := p.file != nil && !p.own
		switch st.Kind {
		case pt.StatusPrivateFile, pt.StatusSharedFile, pt.StatusSharedAnon:
			if !fileBacked || st.File(phys) != p.file.f || st.Off() != p.idx || (st.Kind != pt.StatusPrivateFile) != p.shared {
				t.Fatalf("page %#x is %+v (file %p), model %+v", va, st, st.File(phys), p)
			}
		case pt.StatusMapped:
			d := phys.Desc(phys.HeadOf(st.Page()))
			if fileBacked != (d.RMap.File != nil) || fileBacked && (d.RMap.File != p.file.f || d.RMap.Index != p.idx) {
				t.Fatalf("page %#x maps frame %#x of (%p, %d), model %+v", va, st.Page(), d.RMap.File, d.RMap.Index, p)
			}
		default: // PrivateAnon, Swapped: private bytes
			if fileBacked {
				t.Fatalf("page %#x is %+v, model has it backed by file page %d", va, st, p.idx)
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
	for va := range ref.pages {
		if va < lo || va >= hi {
			c, err := a.Lock(core, va, va+arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			check(c, va)
			c.Close()
		}
		if got, err := a.Load(core, va); err != nil || got != ref.load(va) {
			t.Fatalf("load %#x = %d, %v; model has %d (%+v)", va, got, err, ref.load(va), ref.pages[va])
		}
	}
	checkChunksMatchModel(t, a, ref.allocated, len(ref.pages))
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
			a, err := New(Options{Machine: m, Protocol: p, ISA: arch.X8664(true),
				SwapDev: mem.NewBlockDev("swap")})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefModel()

			const (
				base      = arch.Vaddr(0x2000_0000)
				npages    = 256
				filePages = 1 << 12
			)
			pageAt := func(i int) arch.Vaddr { return base + arch.Vaddr(i)*arch.PageSize }

			// Two files, each kept registered by a one-page anchor mapping
			// for the whole run: a named one, and the kernel-internal file
			// of a shared-anonymous region.
			named := &refFile{f: mem.NewFile(m.Phys, "data", filePages*arch.PageSize), bytes: map[uint64]byte{}}
			anchor, err := a.MmapFile(0, named.f, 0, arch.PageSize, arch.PermRead, true)
			if err != nil {
				t.Fatal(err)
			}
			ref.pages[anchor] = refPage{perm: arch.PermRead, file: named, shared: true}
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
			shm := &refFile{f: st.File(m.Phys), bytes: map[uint64]byte{}}
			if err := a.Munmap(0, shmVA+arch.PageSize, (filePages-1)*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			ref.pages[shmVA] = refPage{perm: arch.PermRW, file: shm, shared: true}

			var child *AddrSpace
			var childRef *refModel
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
					free := true
					for i := lo; i < lo+n; i++ {
						free = free && !ref.allocated(pageAt(i))
					}
					err := a.MmapFixed(0, va, size, arch.PermRW, 0)
					if free != (err == nil) {
						t.Fatalf("step %d: mmapfixed free=%v err=%v", step, free, err)
					}
					if err == nil {
						for i := lo; i < lo+n; i++ {
							ref.pages[pageAt(i)] = refPage{perm: arch.PermRW}
						}
					}
				case 1: // munmap
					if err := a.Munmap(0, va, size); err != nil {
						t.Fatalf("step %d: munmap: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						delete(ref.pages, pageAt(i))
					}
				case 2: // mprotect
					want := arch.PermRead
					if rng.Intn(2) == 0 {
						want = arch.PermRW
					}
					if err := a.Mprotect(0, va, size, want); err != nil {
						t.Fatalf("step %d: mprotect: %v", step, err)
					}
					for i := lo; i < lo+n; i++ {
						if p, ok := ref.pages[pageAt(i)]; ok {
							p.perm = want
							ref.pages[pageAt(i)] = p
						}
					}
				case 3: // store
					b := byte(rng.Intn(256))
					err := a.Store(0, va, b)
					p, ok := ref.pages[va]
					legal := ok && p.perm.Contains(arch.PermWrite)
					if legal != (err == nil) {
						t.Fatalf("step %d: store legal=%v err=%v (page %d %+v)", step, legal, err, lo, p)
					}
					if err == nil {
						ref.store(va, b)
					}
				case 4: // load
					got, err := a.Load(0, va)
					if ok := ref.allocated(va); ok != (err == nil) {
						t.Fatalf("step %d: load mapped=%v err=%v", step, ok, err)
					}
					if err == nil && got != ref.load(va) {
						t.Fatalf("step %d: load page %d = %d, want %d (%+v)", step, lo, got, ref.load(va), ref.pages[va])
					}
					if err != nil && !errors.Is(err, mm.ErrSegv) {
						t.Fatalf("step %d: unexpected error kind: %v", step, err)
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
					if err := c.Mark(va, va+arch.Vaddr(size), pt.FileStatus(kind, arch.PermRW, file.f, off)); err != nil {
						t.Fatalf("step %d: mark %v at file page %d: %v", step, kind, off, err)
					}
					c.Close()
					for i := 0; i < n; i++ {
						ref.pages[pageAt(lo+i)] = refPage{perm: arch.PermRW, file: file, idx: off + uint64(i), shared: shared}
					}
				case 6: // swap out what is private, anonymous and resident
					if _, err := a.SwapOut(0, va, size); err != nil {
						t.Fatalf("step %d: swapout: %v", step, err)
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
					for i := lo; i < lo+n; i++ {
						if p, ok := ref.pages[pageAt(i)]; ok {
							p.key = key
							ref.pages[pageAt(i)] = p
						}
					}
				case 8: // grow: everything in the range moves out of the window
					grown := size + uint64(1+rng.Intn(4))*arch.PageSize
					tail := refPage{perm: arch.PermRW}
					for i := lo; i < lo+n; i++ {
						if p, ok := ref.pages[pageAt(i)]; ok {
							tail.perm = p.perm // the grown tail takes the first page's permission
							break
						}
					}
					nva, err := a.Mremap(0, va, size, grown)
					if err != nil {
						t.Fatalf("step %d: mremap: %v", step, err)
					}
					moved := newRefModel()
					for off := uint64(0); off < grown; off += arch.PageSize {
						if p, ok := ref.pages[va+arch.Vaddr(off)]; ok && off < size {
							moved.pages[nva+arch.Vaddr(off)] = p
							delete(ref.pages, va+arch.Vaddr(off))
						} else if off >= size {
							moved.pages[nva+arch.Vaddr(off)] = tail
						}
					}
					// Compared where it landed, then unmapped: the stream
					// stays in its window.
					for mva := range moved.pages {
						if got, err := a.Load(0, mva); err != nil || got != moved.load(mva) {
							t.Fatalf("step %d: moved page %#x = %d, %v; want %d (%+v)", step, mva, got, err, moved.load(mva), moved.pages[mva])
						}
					}
					if err := a.Munmap(0, nva, grown); err != nil {
						t.Fatalf("step %d: munmap of the moved range: %v", step, err)
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
						p, ok := ref.pages[pageAt(i)]
						if ok != st.Allocated() {
							t.Fatalf("step %d: query page %d allocated=%v, ref=%v", step, i, st.Allocated(), ok)
						}
						if got := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared); ok && (got != p.perm || st.Key() != p.key) {
							t.Fatalf("step %d: query page %d perm=%v key=%d, ref=%v key %d", step, i, got, st.Key(), p.perm, p.key)
						}
					}
					checkIterateMatchesQuery(t, c, va, va+arch.Vaddr(size))
					c.Close()
				}
				checkChunksMatchModel(t, a, ref.allocated, len(ref.pages))
				if step%300 == 299 {
					// Fork wants nothing swapped; everything else not
					// resident stays so, and the child inherits it as
					// copied status words. The parent is compared in full
					// now, the child one period of parent mutations later.
					retireChild()
					for va := range ref.pages {
						c, err := a.Lock(0, va, va+arch.PageSize)
						if err != nil {
							t.Fatal(err)
						}
						st, _ := c.Query(va)
						c.Close()
						if st.Kind == pt.StatusSwapped {
							if err := a.Touch(0, va, pt.AccessRead); err != nil {
								t.Fatalf("step %d: swap-in of %#x: %v", step, va, err)
							}
						}
					}
					forked, err := a.Fork(0)
					if err != nil {
						t.Fatalf("step %d: fork: %v", step, err)
					}
					child, childRef = forked.(*AddrSpace), ref.clone()
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
	alive, written := map[int]bool{}, map[int]byte{}
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
			if err == nil {
				written[i] = byte(i)
			}
		case 1:
			if err := a.Munmap(0, va, arch.PageSize); err != nil {
				t.Fatal(err)
			}
			delete(alive, i)
			delete(written, i)
		case 2:
			got, err := a.Load(0, va)
			if alive[i] != (err == nil) || got != written[i] {
				t.Fatalf("step %d: load alive=%v err=%v, read %d want %d", step, alive[i], err, got, written[i])
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
