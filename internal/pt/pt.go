// Package pt implements the page-table layer of the simulated machine:
// radix-tree page-table pages stored in physical frames, atomic PTE
// access (the foundation of CortenMM_adv's lockless traversal), the
// per-PTE metadata arrays that store virtual-page state the MMU cannot
// hold (§3.3), a hardware page walker, and the Figure-12 well-formedness
// checker.
//
// This package is mechanism only. Policy — which pages to lock, when a
// PT page may be freed, how TLBs are shot down — lives in the memory
// managers built on top (internal/core and the baselines).
package pt

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/locks"
	"cortenmm/internal/mem"
)

// PageState is the PT-page part of a page descriptor (§3.3): the lock
// protecting the descriptor, the PT page and its metadata array, plus the
// protocol state CortenMM_adv needs (the stale flag of Figure 6).
type PageState struct {
	// Level of this PT page: 1 = leaf table, arch.Levels = root.
	Level int8
	// Young and Cold are a leaf table's heat, the collapse scanner's
	// evidence about the 2-MiB span it maps: scans that saw a young
	// majority, and consecutive cold scans since. Written under the page's
	// lock; a fresh table starts cold. (They sit in Level's padding.)
	Young, Cold uint8
	// Stale is set (under Mu) when the page has been unlinked from its
	// parent; lockers observing it must retry from the root (Fig 6 L10).
	Stale atomic.Bool
	// Mu is the exclusive PT-page lock used by CortenMM_adv.
	Mu locks.MCS
	// RW is the readers-writer PT-page lock used by CortenMM_rw
	// (BRAVO-pfqlock); nil when the tree was built without it.
	RW locks.RWLock

	// The fields below are protected by the page's lock.

	// Meta is the per-PTE metadata array, allocated on demand and freed
	// with the PT page.
	Meta *MetaArray
	// Present counts present PTEs in this page.
	Present int32
	// MetaCnt counts non-invalid metadata entries.
	MetaCnt int32
}

// metaArrayBytes is the allocation size charged per metadata array.
const metaArrayBytes = int64(unsafe.Sizeof(MetaArray{}))

// Tree is one page table: a root PT page plus the machinery to allocate,
// address and account for PT pages and their metadata arrays.
type Tree struct {
	Phys *mem.PhysMem
	ISA  arch.ISA
	// Cores sizes the BRAVO visible-reader tables.
	Cores int
	// WithRW allocates readers-writer locks on every PT page, as
	// CortenMM_rw requires.
	WithRW bool
	// Root is the PFN of the root PT page (level arch.Levels).
	Root arch.PFN
	// Owner is the space the tree's status words register with the files
	// they name: every stored word naming file F is one registration of
	// Owner with F, taken as the word is stored and given back as it goes
	// (SetMetaWord, FillMeta, CopyMeta, Destroy). Nil: words register
	// nothing.
	Owner mem.RMapTarget

	// MetaBytes tracks bytes held by metadata arrays (Fig 22 accounting).
	MetaBytes atomic.Int64
	// PTPageCount tracks live PT pages in this tree.
	PTPageCount atomic.Int64
}

// NewTree allocates an empty page table on phys.
func NewTree(phys *mem.PhysMem, isa arch.ISA, cores int, withRW bool) (*Tree, error) {
	t := &Tree{Phys: phys, ISA: isa, Cores: cores, WithRW: withRW}
	root, err := t.AllocPTPage(0, arch.Levels)
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

// AllocPTPage allocates a PT page of the given level with a fresh
// PageState installed in its descriptor.
func (t *Tree) AllocPTPage(core, level int) (arch.PFN, error) {
	if fault.PTAllocPage.Fire() {
		return 0, fault.PTAllocPage.Errorf(mem.ErrOutOfMemory)
	}
	pfn, err := t.Phys.AllocFrame(core, mem.KindPT)
	if err != nil {
		return 0, err
	}
	st := &PageState{Level: int8(level)}
	if t.WithRW {
		st.RW = locks.NewBRAVO(new(locks.PhaseFair), t.Cores)
	}
	t.Phys.Desc(pfn).PT = st
	t.PTPageCount.Add(1)
	return pfn, nil
}

// ReleasePTPage frees a PT page (which must be empty and exclusively
// owned or RCU-quarantined) and its metadata array.
func (t *Tree) ReleasePTPage(core int, pfn arch.PFN) {
	st := t.State(pfn)
	if st.Meta != nil {
		st.Meta = nil
		t.MetaBytes.Add(-metaArrayBytes)
	}
	t.PTPageCount.Add(-1)
	t.Phys.Put(core, pfn)
}

// State returns the PT-page state of pfn.
func (t *Tree) State(pfn arch.PFN) *PageState {
	return t.Phys.Desc(pfn).PT.(*PageState)
}

// Words returns the PTE array of PT page pfn.
func (t *Tree) Words(pfn arch.PFN) *[arch.PTEntries]uint64 {
	return t.Phys.Words(pfn)
}

// LoadPTE atomically reads entry idx of PT page pfn. Safe without locks;
// this is what both the hardware walker and the CortenMM_adv traversal
// phase use.
func (t *Tree) LoadPTE(pfn arch.PFN, idx int) uint64 {
	return atomic.LoadUint64(&t.Words(pfn)[idx])
}

// StorePTE atomically writes entry idx of PT page pfn without touching
// the Present count. Only for callers that maintain counts themselves.
func (t *Tree) StorePTE(pfn arch.PFN, idx int, pte uint64) {
	atomic.StoreUint64(&t.Words(pfn)[idx], pte)
}

// CASPTE atomically replaces entry idx if it still holds old.
func (t *Tree) CASPTE(pfn arch.PFN, idx int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.Words(pfn)[idx], old, new)
}

// SetPTE writes entry idx while maintaining the page's Present count.
// The caller must hold the page's lock. Returns the previous entry.
func (t *Tree) SetPTE(pfn arch.PFN, idx int, pte uint64) uint64 {
	st := t.State(pfn)
	old := atomic.LoadUint64(&t.Words(pfn)[idx])
	atomic.StoreUint64(&t.Words(pfn)[idx], pte)
	wasPresent := t.ISA.IsPresent(old)
	isPresent := t.ISA.IsPresent(pte)
	switch {
	case isPresent && !wasPresent:
		st.Present++
	case !isPresent && wasPresent:
		st.Present--
	}
	return old
}

// FillUnlinked writes ptes, present entries all, into the first entries
// of the empty PT page pfn, which no entry points to yet. Such a table is
// ordinary memory: plain stores fill it, and the atomic SetPTE that links
// it into its parent is the only store that needs ordering — whoever
// loads that entry sees the table as written here.
func (t *Tree) FillUnlinked(pfn arch.PFN, ptes []uint64) {
	copy(t.Words(pfn)[:], ptes)
	t.State(pfn).Present = int32(len(ptes))
}

// ensureMeta returns the page's metadata array, allocating it on demand.
// The caller must hold the page's lock.
func (t *Tree) ensureMeta(st *PageState) *MetaArray {
	if st.Meta == nil {
		st.Meta = new(MetaArray)
		t.MetaBytes.Add(metaArrayBytes)
	}
	return st.Meta
}

// SetMeta stores the status for entry idx, unchecked (see Pack),
// maintaining MetaCnt. The caller must hold the page's lock.
func (t *Tree) SetMeta(pfn arch.PFN, idx int, s Status) { t.SetMetaWord(pfn, idx, s.word()) }

// GetMeta reads the status of entry idx. The caller must hold the page's
// lock (or otherwise exclude writers).
func (t *Tree) GetMeta(pfn arch.PFN, idx int) Status { return Unpack(t.Meta(pfn, idx)) }

// Meta reads the status word of entry idx (zero: nothing allocated),
// under the same rule as GetMeta. Walks test and edit the word; only
// what must know the backing — Query, Iterate, the fault path — decodes.
func (t *Tree) Meta(pfn arch.PFN, idx int) uint64 {
	if st := t.State(pfn); st.Meta != nil {
		return st.Meta[idx]
	}
	return 0
}

// SetMetaWord stores the status word for entry idx, maintaining MetaCnt
// and the words' file registrations (the new word's is taken before the
// old word's is given back), and returns the word it replaces. The
// caller must hold the page's lock.
func (t *Tree) SetMetaWord(pfn arch.PFN, idx int, w uint64) (old uint64) {
	st := t.State(pfn)
	if w == 0 && st.Meta == nil {
		return 0
	}
	t.Register(w, 1)
	meta := t.ensureMeta(st)
	old, meta[idx] = meta[idx], w
	switch {
	case w&kindMask != 0 && old&kindMask == 0:
		st.MetaCnt++
	case w&kindMask == 0 && old&kindMask != 0:
		st.MetaCnt--
	}
	t.Unregister(old, 1)
	return old
}

// EditMeta replaces one field of entry idx's word, if the entry is
// allocated, with bits (see PermEdit/KeyEdit): mprotect of a virtual
// page is this masked store. The caller must hold the page's lock.
func (t *Tree) EditMeta(pfn arch.PFN, idx int, field, bits uint64) {
	if st := t.State(pfn); st.Meta != nil && st.Meta[idx]&kindMask != 0 {
		st.Meta[idx] = st.Meta[idx]&^field | bits&field
	}
}

// FillMeta gives the empty entries [from, PTEntries) of pfn the span
// status w, entry i slid by i*stride pages — an upper-level status
// pushed down into a fresh child, each entry one more registration of a
// file w names (taken before the caller clears the parent's word). The
// caller must hold the page's lock.
func (t *Tree) FillMeta(pfn arch.PFN, from int, w, stride uint64) {
	st, step := t.State(pfn), Slide(w, stride)-w
	t.Register(w, uint64(arch.PTEntries-from))
	meta := t.ensureMeta(st)
	for i := from; i < arch.PTEntries; i++ {
		meta[i] = w + uint64(i)*step
	}
	st.MetaCnt += int32(arch.PTEntries - from)
}

// CopyMeta copies the metadata array of t's page src onto the (empty)
// page dst of tree to, as fork does, each copied file word registering
// with to's owner, and reports false — copying nothing — if it holds a
// Swapped entry: two trees naming one block would race to swap it in.
func (t *Tree) CopyMeta(src arch.PFN, to *Tree, dst arch.PFN) bool {
	st := t.State(src)
	if st.MetaCnt == 0 {
		return true
	}
	for _, w := range st.Meta {
		if StatusKind(w&kindMask) == StatusSwapped {
			return false
		}
	}
	dt := to.State(dst)
	*to.ensureMeta(dt), dt.MetaCnt = *st.Meta, st.MetaCnt
	for _, w := range st.Meta {
		to.Register(w, 1)
	}
	return true
}

// FreeSwap releases the swap block a Swapped word holds; other words
// hold nothing (and cost a test of the kind bits, inlined). Whoever
// clears or abandons a metadata entry calls it.
func (t *Tree) FreeSwap(w uint64) {
	if StatusKind(w&kindMask) == StatusSwapped {
		t.freeBlock(w)
	}
}

// Register takes n registrations of the owner with the file the file
// word w names, and reports false, taking none, if no file holds w's id
// any more. Other words, and every word of an ownerless tree, register
// nothing (and cost a test of the kind bits). A word stored from one
// already in a tree, or from a status Mark holds, cannot fail.
func (t *Tree) Register(w, n uint64) bool {
	return !StatusKind(w&kindMask).file() || t.register(w, n)
}

// Unregister gives back n registrations Register took for w.
func (t *Tree) Unregister(w, n uint64) {
	if StatusKind(w & kindMask).file() {
		t.unregister(w, n)
	}
}

// register and unregister are the file-word halves, kept out of line so
// that Register and Unregister inline to the kind test.
//
//go:noinline
func (t *Tree) register(w, n uint64) bool {
	return t.Owner == nil || t.Phys.AddMappersByID(uint32(w>>objShift)&mem.MaxObjID, t.Owner, n)
}

func (t *Tree) unregister(w, n uint64) {
	if t.Owner != nil {
		t.Phys.FileByID(uint32(w>>objShift)).RemoveMappers(t.Owner, n)
	}
}

func (t *Tree) freeBlock(w uint64) {
	if s := Unpack(w); s.Dev(t.Phys) != nil {
		s.Dev(t.Phys).FreeBlock(s.Block())
	}
}

// Pack checks s — as the status of a span of pages pages — and encodes
// it as the word Mark stores: every field inside its width (an unknown
// kind, permission bits outside the six defined, a key above
// arch.MaxProtKey, a huge level above 3, an object id above
// mem.MaxObjID, a page index or block at or beyond 2^32 anywhere in the
// span are rejected, not truncated), and the word well formed
// (WordOK).
func (t *Tree) Pack(s Status, pages uint64) (uint64, error) {
	w := s.word()
	if Unpack(w) != s || s.Kind.file() && pages > payloadLimit-s.val || !t.WordOK(w) {
		return 0, fmt.Errorf("status %+v over %d pages has a field beyond its width or names nothing registered", s, pages)
	}
	return w, nil
}

// WordOK reports whether w is well formed as a metadata entry of this
// tree: a storable kind (not Mapped, which lives in the PTE), reserved
// bits zero, a huge level the ISA has, and an object the machine has
// registered exactly where the kind names one.
func (t *Tree) WordOK(w uint64) bool {
	s := Unpack(w)
	huge := s.HugeLevel()
	ok := w&reservedMask == 0 && (huge == 0 || huge > 1 && t.ISA.SupportsHugeAt(huge))
	switch {
	case s.Kind == StatusPrivateAnon:
		ok = ok && w>>objShift == 0
	case s.Kind.file():
		ok = ok && s.File(t.Phys) != nil
	case s.Kind == StatusSwapped:
		ok = ok && s.Dev(t.Phys) != nil
	default: // nothing at all, or a kind no entry stores
		ok = w == 0
	}
	return ok
}

// Empty reports whether the page has no present PTEs and no metadata.
// The caller must hold the page's lock.
func (t *Tree) Empty(pfn arch.PFN) bool {
	st := t.State(pfn)
	return st.Present == 0 && st.MetaCnt == 0
}

// Destroy frees the entire tree, dropping references of mapped data
// frames through release (may be nil) and the swap blocks and file
// registrations of surviving metadata entries. Exclusive access required
// (address-space teardown).
func (t *Tree) Destroy(core int, release func(pte uint64, level int)) {
	t.destroyPage(core, t.Root, arch.Levels, release)
}

func (t *Tree) destroyPage(core int, pfn arch.PFN, level int, release func(uint64, int)) {
	words := t.Words(pfn)
	if st := t.State(pfn); st.MetaCnt > 0 {
		for _, w := range st.Meta {
			t.FreeSwap(w)
			t.Unregister(w, 1)
		}
	}
	for i := 0; i < arch.PTEntries; i++ {
		pte := atomic.LoadUint64(&words[i])
		if !t.ISA.IsPresent(pte) {
			continue
		}
		if t.ISA.IsLeaf(pte, level) {
			if release != nil {
				release(pte, level)
			}
			continue
		}
		t.destroyPage(core, t.ISA.PFNOf(pte), level-1, release)
	}
	t.ReleasePTPage(core, pfn)
}

// String describes the tree briefly.
func (t *Tree) String() string {
	return fmt.Sprintf("pt.Tree{%s, root=%#x, pages=%d}", t.ISA.Name(), t.Root, t.PTPageCount.Load())
}
