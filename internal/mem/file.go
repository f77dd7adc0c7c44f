package mem

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// RMapTarget is implemented by address spaces so reverse mapping can walk
// from a file page to every space that maps it. The file knows only
// which spaces those are; each finds the page's mappings in its own page
// table, through its transactional interface (§4.5).
type RMapTarget interface {
	// RMapUnmap asks the target to unmap the given file page wherever it
	// has it mapped. Used by writeback/reclaim paths.
	RMapUnmap(file *File, index uint64)
}

// File is a simulated named file: a sparse array of pages backed by the
// page cache, plus the tree of address spaces that map it (the paper's
// reverse-mapping structure for named pages). Shared anonymous mappings
// are supported by naming their pages with an anonymous File inside the
// kernel, exactly as §4.5 describes.
type File struct {
	Name string

	mu   sync.Mutex
	mem  *PhysMem
	size uint64
	// id names the file in page-table status words while it has a
	// mapper (see objTable); 0 otherwise. Written under mu.
	id    atomic.Uint32
	pages map[uint64]arch.PFN // page cache: file page index -> frame
	// mappers is the rmap "tree": each space that references the file
	// from its page table, with its count of registrations — one per
	// status word naming the file and one per PTE mapping one of its
	// page-cache frames (internal/pt and internal/core keep it so).
	mappers    map[RMapTarget]uint64
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
	return &File{
		Name:    name,
		mem:     m,
		size:    size,
		pages:   make(map[uint64]arch.PFN),
		mappers: make(map[RMapTarget]uint64),
	}
}

// Size returns the file length in bytes.
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
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
		return 0, fmt.Errorf("mem: file %q page %d beyond EOF", f.Name, index)
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

// AddMapper registers t once more in the reverse-mapping tree. The
// file's first registration anywhere gives it its object id;
// ErrObjTableFull, with nothing registered, when the machine has none
// left. Every later one cannot fail.
func (f *File) AddMapper(t RMapTarget) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.mappers) == 0 {
		id := f.mem.objs.files.add(f)
		if id == 0 {
			return ErrObjTableFull
		}
		f.id.Store(id)
	}
	f.mappers[t]++
	return nil
}

// AddMappersByID registers t n more times with the file holding object
// id, and reports false, registering nothing, if no file holds it: a
// status word names its file by id, so this is how a word registers, and
// it never gives a file an id.
func (m *PhysMem) AddMappersByID(id uint32, t RMapTarget, n uint64) bool {
	f := m.FileByID(id)
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.id.Load() != id {
		return false
	}
	f.mappers[t] += n
	return true
}

// RemoveMappers drops n registrations of t; the file's last one anywhere
// gives its object id back.
func (f *File) RemoveMappers(t RMapTarget, n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch have := f.mappers[t]; {
	case have > n:
		f.mappers[t] = have - n
		return
	case have < n:
		panic(fmt.Sprintf("mem: %d registrations of file %q dropped, %d held", n, f.Name, have))
	}
	delete(f.mappers, t)
	if len(f.mappers) == 0 && f.id.Load() != 0 {
		f.mem.objs.files[f.id.Swap(0)].Store(nil)
	}
}

// ID returns the file's object id, or 0 while no space maps it.
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

// objTable is the machine's object table: what the small ids in
// page-table status words (internal/pt) stand for. A file holds an id
// from its first registration to its last, and every status word naming
// file F is itself one registration of F, so no reader can meet a stale
// id; swap devices register when an address space is given one and are
// never recycled (a swapped page may outlive the space's use of the
// device). Neither taking an id nor the lookups on the fault path take a
// lock.
type objTable struct {
	files objSlots[File]
	devs  objSlots[BlockDev]
}

type objSlots[T any] [MaxObjID + 1]atomic.Pointer[T]

// add returns the id x is registered under, taking the lowest free one
// on first sight; 0 for nil or when none is free.
func (s *objSlots[T]) add(x *T) uint32 {
	for id := uint32(1); id <= MaxObjID && x != nil; id++ {
		if p := s[id].Load(); (p == nil || p == x) && (s[id].CompareAndSwap(nil, x) || s[id].Load() == x) {
			return id
		}
	}
	return 0
}

// RegisterDev returns the object id of swap device d on this machine,
// registering it on first sight; 0 for a nil device or a full table.
func (m *PhysMem) RegisterDev(d *BlockDev) uint32 { return m.objs.devs.add(d) }

// FileByID resolves a status word's object id to the mapped file holding
// it, nil if none does.
func (m *PhysMem) FileByID(id uint32) *File { return m.objs.files[id&MaxObjID].Load() }

// DevByID resolves a status word's object id to a registered swap
// device, nil if none has it.
func (m *PhysMem) DevByID(id uint32) *BlockDev { return m.objs.devs[id&MaxObjID].Load() }

// ForEachMapper calls fn for every registered address space with its
// registration count. The file lock is not held during fn, so fn may
// call back into the file.
func (f *File) ForEachMapper(fn func(t RMapTarget, n uint64)) {
	f.mu.Lock()
	mappers := maps.Clone(f.mappers)
	f.mu.Unlock()
	for t, n := range mappers {
		fn(t, n)
	}
}

// UnmapAll walks the reverse map asking every mapper to unmap page index,
// then evicts it from the page cache — the reclaim path.
func (f *File) UnmapAll(core int, index uint64) {
	f.ForEachMapper(func(t RMapTarget, _ uint64) { t.RMapUnmap(f, index) })
	f.DropPage(core, index)
}

// BlockDev is a simulated swap block device: 4-KiB blocks with explicit
// allocation, holding page contents for swapped-out pages.
type BlockDev struct {
	Name string

	mu     sync.Mutex
	blocks map[uint64][]byte
	free   []uint64
	next   uint64
	nalloc int
}

// NewBlockDev creates an empty block device.
func NewBlockDev(name string) *BlockDev {
	return &BlockDev{Name: name, blocks: make(map[uint64][]byte)}
}

// AllocBlock reserves a block number for a swapped-out page.
func (d *BlockDev) AllocBlock() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nalloc++
	if n := len(d.free); n > 0 {
		b := d.free[n-1]
		d.free = d.free[:n-1]
		return b
	}
	d.next++
	return d.next - 1
}

// FreeBlock releases a block number and its contents.
func (d *BlockDev) FreeBlock(b uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.blocks, b)
	d.free = append(d.free, b)
	d.nalloc--
}

// Write stores a page-sized buffer into block b (swap-out I/O). A
// failed write (only the swap.write fault site fails in simulation)
// leaves the block unmodified; callers must free the block and keep the
// page resident. The error wraps ErrOutOfMemory because a failed
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

// InUse returns the number of allocated blocks.
func (d *BlockDev) InUse() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nalloc
}
