package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/rcu"
)

// File is a simulated named file: a sparse array of pages backed by the
// page cache, counted by the references that name it. Who maps a file is
// recorded only in the page tables: each space finds the file's pages in
// its own tree (§4.5). Shared anonymous mappings name their pages with
// an anonymous File inside the kernel (NewAnonFile), exactly as §4.5
// describes.
type File struct {
	Name string

	mu   sync.Mutex
	mem  *PhysMem
	size uint64
	// id names the file in page-table status words while it is held
	// (see fileTable); 0 otherwise. Written under mu.
	id    atomic.Uint32
	pages map[uint64]arch.PFN // page cache: file page index -> frame
	// refs counts the file's references: one per status word naming it,
	// marked or beside the PTE of a page it is the origin of
	// (internal/pt keeps it so), plus a caller's hold across a store.
	refs uint64
	// anon marks a kernel-internal file (NewAnonFile): nothing can reach
	// it once its last reference goes, so that drops its page cache.
	anon       bool
	writebacks uint64
}

// Writeback records that page index was written back to storage (msync,
// reclaim). The page cache is the file content in this simulation, so
// writeback is pure accounting.
func (f *File) Writeback(index uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writebacks++
}

// WritebackCount reports cumulative writebacks.
func (f *File) WritebackCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writebacks
}

// NewFile creates a file of the given byte size backed by m's page cache.
func NewFile(m *PhysMem, name string, size uint64) *File {
	return &File{Name: name, mem: m, size: size, pages: make(map[uint64]arch.PFN)}
}

// NewAnonFile creates the kernel-internal file that names the pages of
// a shared anonymous mapping (Linux's shmem inode). Unlike a named
// file, whose page cache is its content, it frees its cached pages with
// its last reference.
func NewAnonFile(m *PhysMem, size uint64) *File {
	f := NewFile(m, "[shm]", size)
	f.anon = true
	return f
}

// NPages returns the number of resident page-cache pages.
func (f *File) NPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages)
}

// GetPage returns the frame caching file page index, reading it in (i.e.
// allocating and zero-filling, our stand-in for disk I/O) on a miss. The
// returned frame carries an extra reference owned by the caller.
func (f *File) GetPage(core int, index uint64) (arch.PFN, error) {
	if f == nil {
		return 0, fmt.Errorf("mem: page %d of an unregistered file", index)
	}
	if index*arch.PageSize >= f.size {
		return 0, fmt.Errorf("%w: file %q page %d", ErrBeyondEOF, f.Name, index)
	}
	f.mu.Lock()
	pfn, ok := f.pages[index]
	if ok {
		f.mem.Get(pfn) // caller's reference
	}
	f.mu.Unlock()
	if ok {
		return pfn, nil
	}
	// A miss allocates with f.mu released: the allocation may run direct
	// reclaim, which waits on PT locks, and a PT-lock holder may be
	// waiting on f.mu (see Pressure). Whoever inserts first wins; a loser
	// gives its frame back.
	fresh, err := f.mem.AllocFrame(core, KindFile)
	if err != nil {
		return 0, err
	}
	f.mem.Desc(fresh).RMap = RMapRef{File: f, Index: index}
	f.mu.Lock()
	if pfn, ok = f.pages[index]; !ok {
		pfn = fresh
		f.pages[index] = pfn // page cache holds the initial reference
	}
	f.mem.Get(pfn) // caller's reference
	f.mu.Unlock()
	if ok {
		f.mem.Put(core, fresh)
	}
	return pfn, nil
}

// DropPage evicts page index from the page cache, releasing the cache's
// reference. Mappings keep their own references.
func (f *File) DropPage(core int, index uint64) {
	f.mu.Lock()
	pfn, ok := f.pages[index]
	if ok {
		delete(f.pages, index)
	}
	f.mu.Unlock()
	if ok {
		f.mem.Put(core, pfn)
	}
}

// Hold takes one more reference on the file. Its first reference gives
// it its object id; ErrObjTableFull, taking none, when the machine has
// none left. Every later one cannot fail.
func (f *File) Hold() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
		id := f.mem.files.add(f)
		if id == 0 {
			return ErrObjTableFull
		}
		f.id.Store(id)
	}
	f.refs++
	return nil
}

// HoldFile takes n more references on the file holding object id, and
// reports false, taking none, if no file holds it: a status word names
// its file by id, so this is how a word takes its reference, and it
// never gives a file an id.
func (m *PhysMem) HoldFile(id uint32, n uint64) bool {
	f := m.FileByID(id)
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.id.Load() != id {
		return false
	}
	f.refs += n
	return true
}

// Release gives back n references; the last one gives the object id
// back and, on an anonymous file, drops its page cache. It may run under
// page-table locks: freeing a frame takes only the allocator's locks.
func (f *File) Release(n uint64) {
	f.mu.Lock()
	if f.refs < n {
		f.mu.Unlock()
		panic(fmt.Sprintf("mem: %d references to file %q released, %d held", n, f.Name, f.refs))
	}
	f.refs -= n
	var drop []rcu.FrameRun
	if f.refs == 0 {
		f.mem.files[f.id.Swap(0)].Store(nil)
		if f.anon {
			for _, pfn := range f.pages {
				drop = rcu.AppendRun(drop, pfn)
			}
			clear(f.pages)
		}
	}
	f.mu.Unlock()
	if drop != nil {
		f.mem.PutRuns(0, drop)
	}
}

// Refs returns the number of references the file holds.
func (f *File) Refs() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refs
}

// ID returns the file's object id, or 0 while it is not held.
func (f *File) ID() uint32 {
	if f == nil {
		return 0
	}
	return f.id.Load()
}

// MaxObjID is the largest object id a page-table status word can name.
const MaxObjID = 1<<12 - 1

// ErrObjTableFull means MaxObjID files are mapped on the machine already.
var ErrObjTableFull = fmt.Errorf("mem: object table full (%d mapped files)", MaxObjID)

// ErrBeyondEOF is an access to a mapped file page past the file's end
// (Linux's SIGBUS).
var ErrBeyondEOF = errors.New("mem: access beyond EOF")

// fileTable is the machine's object table: which file each small id in
// page-table status words (internal/pt) stands for. A file holds an id
// from its first reference to its last, and every status word naming
// file F is itself one reference on F, so no reader can meet a stale
// id. Neither taking an id nor the lookups on the fault path take a
// lock.
type fileTable [MaxObjID + 1]atomic.Pointer[File]

// add gives f, which holds no id, the lowest free one; 0 when none is
// free.
func (s *fileTable) add(f *File) uint32 {
	for id := uint32(1); id <= MaxObjID; id++ {
		if s[id].Load() == nil && s[id].CompareAndSwap(nil, f) {
			return id
		}
	}
	return 0
}

// FileByID resolves a status word's object id to the mapped file holding
// it, nil if none does.
func (m *PhysMem) FileByID(id uint32) *File { return m.files[id&MaxObjID].Load() }

// FilesInUse returns the number of object ids files hold: the file
// twin of BlockDev.InUse.
func (m *PhysMem) FilesInUse() (n int) {
	for id := uint32(1); id <= MaxObjID; id++ {
		if m.FileByID(id) != nil {
			n++
		}
	}
	return n
}

// BlockDev is a simulated swap block device: 4-KiB blocks holding the
// contents of swapped-out pages, each block counted by its references
// as Linux counts swap entries (swap_duplicate / swap_free). Every
// page-table status word naming a block holds one (internal/pt), so a
// fork's two copies of a swapped page share the block, and the last
// word to go frees it.
type BlockDev struct {
	mu     sync.Mutex
	refs   map[uint64]uint64 // held block → its references
	blocks map[uint64][]byte
	free   []uint64
	next   uint64
}

// newBlockDev creates an empty block device.
func newBlockDev() *BlockDev {
	return &BlockDev{refs: make(map[uint64]uint64), blocks: make(map[uint64][]byte)}
}

// AllocBlock reserves a block for a swapped-out page, holding one
// reference: the caller's, given back with FreeBlock.
func (d *BlockDev) AllocBlock() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.next
	if n := len(d.free); n > 0 {
		b, d.free = d.free[n-1], d.free[:n-1]
	} else {
		d.next++
	}
	d.refs[b] = 1
	return b
}

// Hold takes n more references on block b, and reports false, taking
// none, if b is not allocated.
func (d *BlockDev) Hold(b, n uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refs[b] == 0 {
		return false
	}
	d.refs[b] += n
	return true
}

// FreeBlock drops one reference on block b; the last one frees the
// block and its contents. A block not held is left alone.
func (d *BlockDev) FreeBlock(b uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.refs[b] {
	case 0:
	case 1:
		delete(d.refs, b)
		delete(d.blocks, b)
		d.free = append(d.free, b)
	default:
		d.refs[b]--
	}
}

// Write stores a page-sized buffer into block b (swap-out I/O). A
// failed write (only the swap.write fault site fails in simulation)
// leaves the block unmodified; callers must drop their reference and keep
// the page resident. The error wraps ErrOutOfMemory because a failed
// swap-out means the frame could not be reclaimed.
func (d *BlockDev) Write(b uint64, data []byte) error {
	if fault.SwapWrite.Fire() {
		return fault.SwapWrite.Errorf(ErrOutOfMemory)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks[b] = buf
	return nil
}

// Read copies block b into buf (swap-in I/O). Unwritten blocks read as
// zeros.
func (d *BlockDev) Read(b uint64, buf []byte) {
	d.mu.Lock()
	data := d.blocks[b]
	d.mu.Unlock()
	if data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, data)
}

// InUse returns the number of held blocks.
func (d *BlockDev) InUse() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.refs)
}
