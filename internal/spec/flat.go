package spec

import (
	"errors"
	"fmt"
	"slices"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Flat is the flat reference model of one address space at the syscall
// surface: the Atomic Spec of P2, functional correctness (§5.2) — "this
// VA, in this space, holds this byte with this permission". It maps each
// live virtual page to its logical state: permission, key, and what
// backs it, private bytes or a page of a file shared with every other
// mapping of it. Each op method applies the op and returns the answer
// every system must give: nil, or an error of one of the classes Class
// names; such a refusal changes nothing. Mmap and Mremap take the
// address the system chose and fail, with an error of no class, if it
// is not free. A page holds one byte, the one at its start, and every
// access the model is asked about is at a page's start.
type Flat struct {
	cores int
	pages map[arch.Vaddr]FlatPage
}

// FlatFile is a file as the model sees it: its length in pages and the
// byte at the start of each of its pages.
type FlatFile struct {
	File  *mem.File
	pages uint64
	bytes map[uint64]byte
}

// FlatPage is the logical state of one live page.
type FlatPage struct {
	Perm arch.Perm
	Key  arch.ProtKey
	// File and Idx name the backing file page; nil for anonymous memory.
	File *FlatFile
	Idx  uint64
	// Shared mappings write through to the file; private ones copy on
	// their first write, after which Own holds and B is the content
	// (anonymous pages only ever have B).
	Shared, Own bool
	B           byte
}

// FileBacked reports whether the page's content is its file page's.
func (p FlatPage) FileBacked() bool { return p.File != nil && !p.Own }

// classes is the model's vocabulary: every answer is nil or wraps one.
var classes = []error{
	mm.ErrSegv, mm.ErrExists, mm.ErrBadRange, mm.ErrBadCore, mm.ErrDestroyed, mm.ErrNotSupported,
	mem.ErrOutOfMemory, mem.ErrBeyondEOF, cpusim.ErrVAExhausted,
}

// Class is the first sentinel of the model's vocabulary that err wraps
// (nil for nil), and false when it wraps none — an answer no model op
// gives.
func Class(err error) (error, bool) {
	if err == nil {
		return nil, true
	}
	for _, c := range classes {
		if errors.Is(err, c) {
			return c, true
		}
	}
	return nil, false
}

// NewFlat is an empty space on a machine of cores cores.
func NewFlat(cores int) *Flat { return &Flat{cores: cores, pages: map[arch.Vaddr]FlatPage{}} }

// NewFlatFile is f, pages pages long, as the model sees it: all zero.
func NewFlatFile(f *mem.File, pages uint64) *FlatFile {
	return &FlatFile{File: f, pages: pages, bytes: map[uint64]byte{}}
}

// Page is the state of the live page at va.
func (f *Flat) Page(va arch.Vaddr) (FlatPage, bool) { p, ok := f.pages[va]; return p, ok }

// Len is the number of live pages.
func (f *Flat) Len() int { return len(f.pages) }

// Live lists the live pages in address order.
func (f *Flat) Live() []arch.Vaddr {
	vas := make([]arch.Vaddr, 0, len(f.pages))
	for va := range f.pages {
		vas = append(vas, va)
	}
	slices.Sort(vas)
	return vas
}

// Clone is the model of a fork: private state copied, files shared.
func (f *Flat) Clone() *Flat {
	c := NewFlat(f.cores)
	for va, p := range f.pages {
		c.pages[va] = p
	}
	return c
}

// gate is mm.Gate: core must be one of the machine's.
func (f *Flat) gate(core int) error {
	if uint(core) >= uint(f.cores) {
		return mm.ErrBadCore
	}
	return nil
}

// gateRange is mm.GateRange: gate, and the range must be canonical.
func (f *Flat) gateRange(core int, va arch.Vaddr, size uint64) error {
	if err := f.gate(core); err != nil {
		return err
	}
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	return nil
}

// each calls fn on every page of [va, va+size).
func each(va arch.Vaddr, size uint64, fn func(arch.Vaddr)) {
	for off := uint64(0); off < size; off += arch.PageSize {
		fn(va + arch.Vaddr(off))
	}
}

// free reports whether no page of [va, va+size) is live.
func (f *Flat) free(va arch.Vaddr, size uint64) bool {
	free := true
	each(va, size, func(p arch.Vaddr) { _, live := f.pages[p]; free = free && !live })
	return free
}

// anon maps [va, va+size) as private anonymous memory.
func (f *Flat) anon(va arch.Vaddr, size uint64, perm arch.Perm) {
	each(va, size, func(p arch.Vaddr) { f.pages[p] = FlatPage{Perm: perm} })
}

// Mmap maps size bytes of private anonymous memory at va, the address
// the system chose. Its length follows cpusim.PageLength; an address
// that is not page aligned or not wholly free is an error of no class.
func (f *Flat) Mmap(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := f.gate(core); err != nil {
		return err
	}
	size, err := cpusim.PageLength(size, arch.PageSize)
	if err != nil {
		return err
	}
	if !arch.IsPageAligned(va) || !f.free(va, size) {
		return fmt.Errorf("spec: mmap handed out %#x+%#x, which is not free", va, size)
	}
	f.anon(va, size, perm)
	return nil
}

// MmapFixed maps private anonymous memory at va, refusing with
// mm.ErrExists unless the range is wholly free.
func (f *Flat) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := f.gateRange(core, va, size); err != nil {
		return err
	}
	if !f.free(va, size) {
		return mm.ErrExists
	}
	f.anon(va, size, perm)
	return nil
}

// MapFile maps size bytes of file from page pgoff at va, over whatever
// was there, shared or private.
func (f *Flat) MapFile(va arch.Vaddr, size uint64, perm arch.Perm, file *FlatFile, pgoff uint64, shared bool) {
	each(va, size, func(p arch.Vaddr) {
		f.pages[p] = FlatPage{Perm: perm, File: file, Idx: pgoff + uint64(p-va)/arch.PageSize, Shared: shared}
	})
}

// Munmap removes every page of the range.
func (f *Flat) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := f.gateRange(core, va, size); err != nil {
		return err
	}
	each(va, size, func(p arch.Vaddr) { delete(f.pages, p) })
	return nil
}

// update rewrites the live pages of the range with fn.
func (f *Flat) update(va arch.Vaddr, size uint64, fn func(*FlatPage)) {
	each(va, size, func(va arch.Vaddr) {
		if p, ok := f.pages[va]; ok {
			fn(&p)
			f.pages[va] = p
		}
	})
}

// Mprotect sets the permission of the range's live pages. Over a hole
// it succeeds, where Linux returns ENOMEM; DESIGN §6 states why.
func (f *Flat) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := f.gateRange(core, va, size); err != nil {
		return err
	}
	f.update(va, size, func(p *FlatPage) { p.Perm = perm })
	return nil
}

// SetProtKey tags the range's live pages with key.
func (f *Flat) SetProtKey(va arch.Vaddr, size uint64, key arch.ProtKey) {
	f.update(va, size, func(p *FlatPage) { p.Key = key })
}

// Madvise is MADV_DONTNEED: a live page's private bytes drop, so it
// reads zero, or its file page again; a shared page keeps its content.
func (f *Flat) Madvise(core int, va arch.Vaddr, size uint64) error {
	if err := f.gateRange(core, va, size); err != nil {
		return err
	}
	f.update(va, size, func(p *FlatPage) {
		if p.File == nil || !p.Shared {
			p.Own, p.B = false, 0
		}
	})
	return nil
}

// SwapOut changes nothing a later access can see.
func (f *Flat) SwapOut(core int, va arch.Vaddr, size uint64) error {
	return f.gateRange(core, va, size)
}

// Mremap resizes the mapping at va to newSize bytes; nva is the address
// the system returned. A shrink unmaps the tail in place. A grow needs
// every page of the old range live, else it is mm.ErrSegv; it moves
// them to nva, which must be free once they have left, and the grown
// tail is anonymous memory with the first page's permission.
func (f *Flat) Mremap(core int, va arch.Vaddr, size, newSize uint64, nva arch.Vaddr) error {
	if err := f.gateRange(core, va, size); err != nil {
		return err
	}
	newSize, err := cpusim.PageLength(newSize, arch.PageSize)
	if err != nil {
		return err
	}
	if newSize <= size {
		if nva != va {
			return fmt.Errorf("spec: a shrink of %#x moved it to %#x", va, nva)
		}
		each(va+arch.Vaddr(newSize), size-newSize, func(p arch.Vaddr) { delete(f.pages, p) })
		return nil
	}
	var moved []FlatPage
	each(va, size, func(p arch.Vaddr) {
		if pg, ok := f.pages[p]; ok {
			moved = append(moved, pg)
		}
	})
	if uint64(len(moved))*arch.PageSize != size {
		return mm.ErrSegv
	}
	each(va, size, func(p arch.Vaddr) { delete(f.pages, p) })
	if !arch.IsPageAligned(nva) || !f.free(nva, newSize) {
		return fmt.Errorf("spec: mremap moved %#x to %#x+%#x, which is not free", va, nva, newSize)
	}
	for i, pg := range moved {
		f.pages[nva+arch.Vaddr(i)*arch.PageSize] = pg
	}
	f.anon(nva+arch.Vaddr(size), newSize-size, moved[0].Perm)
	return nil
}

// Touch is an access of kind acc at va: mm.ErrSegv on a hole or a
// missing permission, mem.ErrBeyondEOF on a file page past the file's
// end.
func (f *Flat) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	if err := f.gate(core); err != nil {
		return err
	}
	p, ok := f.pages[va]
	switch {
	case !ok || !p.Perm.Contains(acc.Needs()):
		return mm.ErrSegv
	case p.FileBacked() && p.Idx >= p.File.pages:
		return mem.ErrBeyondEOF
	}
	return nil
}

// Load is what a read of va must return.
func (f *Flat) Load(core int, va arch.Vaddr) (byte, error) {
	if err := f.Touch(core, va, pt.AccessRead); err != nil {
		return 0, err
	}
	if p := f.pages[va]; p.FileBacked() {
		return p.File.bytes[p.Idx], nil
	}
	return f.pages[va].B, nil
}

// Store writes b to va: through to the file on a shared file page, and
// to the page's own copy otherwise.
func (f *Flat) Store(core int, va arch.Vaddr, b byte) error {
	if err := f.Touch(core, va, pt.AccessWrite); err != nil {
		return err
	}
	if p := f.pages[va]; p.File != nil && p.Shared {
		p.File.bytes[p.Idx] = b
		return nil
	}
	f.update(va, arch.PageSize, func(p *FlatPage) { p.Own, p.B = true, b })
	return nil
}
