package mem

import (
	"sync"
	"testing"
	"testing/quick"

	"cortenmm/internal/arch"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	m := NewPhysMem(1024, 1)
	before := m.FreeFrames()
	pfn, err := m.AllocFrame(0, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if pfn == 0 {
		t.Fatal("allocated reserved frame 0")
	}
	if m.Desc(pfn).Kind != KindAnon {
		t.Errorf("kind = %v", m.Desc(pfn).Kind)
	}
	if m.KindFrames(KindAnon) != 1 {
		t.Errorf("KindFrames(anon) = %d", m.KindFrames(KindAnon))
	}
	m.Put(0, pfn)
	if m.FreeFrames() != before {
		t.Errorf("free frames %d != %d after round trip", m.FreeFrames(), before)
	}
	if m.KindFrames(KindAnon) != 0 {
		t.Errorf("anon accounting leaked: %d", m.KindFrames(KindAnon))
	}
}

func TestAllocAllThenOOM(t *testing.T) {
	const n = 256
	m := NewPhysMem(n, 1)
	var got []arch.PFN
	for {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			break
		}
		got = append(got, pfn)
	}
	if len(got) != n-1 { // frame 0 reserved
		t.Errorf("allocated %d frames, want %d", len(got), n-1)
	}
	seen := map[arch.PFN]bool{}
	for _, pfn := range got {
		if seen[pfn] {
			t.Fatalf("frame %#x allocated twice", pfn)
		}
		seen[pfn] = true
	}
	for _, pfn := range got {
		m.Put(0, pfn)
	}
	if m.FreeFrames() != n-1 {
		t.Errorf("free frames = %d after freeing all", m.FreeFrames())
	}
}

func TestHugeAllocAlignment(t *testing.T) {
	m := NewPhysMem(4096, 1)
	pfn, err := m.AllocFrames(0, 9, KindAnon) // 2 MiB
	if err != nil {
		t.Fatal(err)
	}
	if pfn&(1<<9-1) != 0 {
		t.Errorf("order-9 block at %#x not naturally aligned", pfn)
	}
	if m.KindFrames(KindAnon) != 512 {
		t.Errorf("accounting = %d frames", m.KindFrames(KindAnon))
	}
	m.Put(0, pfn)
	if m.KindFrames(KindAnon) != 0 {
		t.Error("huge free leaked accounting")
	}
}

func TestBuddyCoalescing(t *testing.T) {
	m := NewPhysMem(1<<12, 1)
	// Exhaust order-9 blocks, free all order-0 pieces, then a big alloc
	// must succeed again — only possible with coalescing.
	var frames []arch.PFN
	for i := 0; i < 1024; i++ {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, pfn)
	}
	for _, pfn := range frames {
		m.Put(0, pfn)
	}
	if _, err := m.AllocFrames(0, 10, KindAnon); err != nil {
		t.Fatalf("order-10 alloc after scattered frees: %v", err)
	}
}

func TestRefcounting(t *testing.T) {
	m := NewPhysMem(64, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	m.Get(pfn)
	m.Put(0, pfn)
	if m.Desc(pfn).Kind != KindAnon {
		t.Fatal("frame freed while referenced")
	}
	m.Put(0, pfn)
	if m.Desc(pfn).Kind != KindFree {
		t.Fatal("frame not freed at refcount 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Put on free frame did not panic")
		}
	}()
	m.Put(0, pfn)
}

func TestGetOnFreePanics(t *testing.T) {
	m := NewPhysMem(64, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	m.Put(0, pfn)
	defer func() {
		if recover() == nil {
			t.Error("Get on free frame did not panic")
		}
	}()
	m.Get(pfn)
}

func TestWordsOnlyForPT(t *testing.T) {
	m := NewPhysMem(64, 1)
	pt, _ := m.AllocFrame(0, KindPT)
	w := m.Words(pt)
	if len(w) != arch.PTEntries {
		t.Fatalf("words len %d", len(w))
	}
	anon, _ := m.AllocFrame(0, KindAnon)
	defer func() {
		if recover() == nil {
			t.Error("Words on non-PT frame did not panic")
		}
	}()
	m.Words(anon)
}

func TestDataLazy(t *testing.T) {
	m := NewPhysMem(64, 1)
	pfn, _ := m.AllocFrame(0, KindAnon)
	d := m.Data(pfn)
	if len(d) != arch.PageSize {
		t.Fatalf("data len %d", len(d))
	}
	d[0] = 42
	if m.Data(pfn)[0] != 42 {
		t.Error("data not stable across calls")
	}
}

func TestParallelAllocFree(t *testing.T) {
	const cores = 8
	m := NewPhysMem(1<<14, cores)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]arch.PFN, 0, 128)
			for i := 0; i < 2000; i++ {
				if len(local) < 100 {
					pfn, err := m.AllocFrame(c, KindAnon)
					if err != nil {
						t.Error(err)
						return
					}
					local = append(local, pfn)
				} else {
					m.Put(c, local[len(local)-1])
					local = local[:len(local)-1]
				}
			}
			for _, pfn := range local {
				m.Put(c, pfn)
			}
		}()
	}
	wg.Wait()
	if got := m.KindFrames(KindAnon); got != 0 {
		t.Errorf("leaked %d anon frames", got)
	}
	if m.FreeFrames() != 1<<14-1 {
		t.Errorf("free = %d, want %d", m.FreeFrames(), 1<<14-1)
	}
}

// Property: any interleaving of allocs and frees conserves frames.
func TestQuickConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewPhysMem(512, 1)
		total := m.FreeFrames()
		var held []arch.PFN
		for _, op := range ops {
			if op%2 == 0 || len(held) == 0 {
				if pfn, err := m.AllocFrame(0, KindAnon); err == nil {
					held = append(held, pfn)
				}
			} else {
				m.Put(0, held[len(held)-1])
				held = held[:len(held)-1]
			}
			if m.FreeFrames()+uint64(len(held)) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFilePageCache(t *testing.T) {
	m := NewPhysMem(1024, 1)
	f := NewFile(m, "data.txt", 16*arch.PageSize)
	p1, err := f.GetPage(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.GetPage(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("page cache returned different frames for the same index")
	}
	if f.NPages() != 1 {
		t.Errorf("NPages = %d", f.NPages())
	}
	if d := m.Desc(p1); d.RMap.File != f || d.RMap.Index != 3 {
		t.Error("rmap ref not set on file page")
	}
	m.Put(0, p1)
	m.Put(0, p2)
	if m.Desc(p1).Kind != KindFile {
		t.Error("cached page freed while in page cache")
	}
	f.DropPage(0, 3)
	if m.Desc(p1).Kind != KindFree {
		t.Error("page not freed after cache eviction")
	}
	if _, err := f.GetPage(0, 16); err == nil {
		t.Error("GetPage beyond EOF succeeded")
	}
}

// TestRMapWalk: a file is counted by its references, and nothing else
// records who maps it. Hold gives the file its object id, a status word
// takes its references by that id only while the file holds it, Refs
// counts them, and the last Release gives the id back.
func TestRMapWalk(t *testing.T) {
	m := NewPhysMem(256, 1)
	f := NewFile(m, "lib.so", 8*arch.PageSize)
	if f.ID() != 0 || m.HoldFile(1, 1) {
		t.Fatalf("a file nothing holds has id %d, or an unused id takes references", f.ID())
	}
	for range 3 {
		if err := f.Hold(); err != nil {
			t.Fatal(err)
		}
	}
	id := f.ID()
	if id == 0 || m.FileByID(id) != f || m.FilesInUse() != 1 {
		t.Fatalf("held file has id %d, table entry %v, %d files in use", id, m.FileByID(id), m.FilesInUse())
	}
	pfn, _ := f.GetPage(0, 1)
	m.Put(0, pfn)
	if !m.HoldFile(id, 2) || f.Refs() != 5 {
		t.Fatalf("a reference by the file's own id %d refused, or %d references, want 5", id, f.Refs())
	}
	f.Release(4)
	if f.Refs() != 1 || f.ID() != id {
		t.Errorf("after releasing 4 of 5: %d references, id %d; want 1 and %d", f.Refs(), f.ID(), id)
	}
	f.Release(1)
	if f.ID() != 0 || m.HoldFile(id, 1) || m.FilesInUse() != 0 {
		t.Errorf("file keeps id %d, or its old id %d still takes references, after its last one went", f.ID(), id)
	}
	if f.NPages() != 1 {
		t.Errorf("a named file kept %d cached pages after its last reference, want its 1", f.NPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a reference nothing took did not panic")
			}
		}()
		f.Release(1)
	}()
	f.DropPage(0, 1)

	// An anonymous file frees its page cache with its last reference.
	shm := NewAnonFile(m, 2*arch.PageSize)
	if err := shm.Hold(); err != nil {
		t.Fatal(err)
	}
	pfn, _ = shm.GetPage(0, 0)
	m.Put(0, pfn)
	shm.Release(1)
	if shm.NPages() != 0 || m.Desc(pfn).Kind != KindFree {
		t.Errorf("an anonymous file kept %d cached pages after its last reference", shm.NPages())
	}
}

func TestBlockDev(t *testing.T) {
	d := newBlockDev()
	b1 := d.AllocBlock()
	b2 := d.AllocBlock()
	if b1 == b2 {
		t.Fatal("duplicate block numbers")
	}
	buf := make([]byte, arch.PageSize)
	buf[7] = 0xAB
	d.Write(b1, buf)
	got := make([]byte, arch.PageSize)
	d.Read(b1, got)
	if got[7] != 0xAB {
		t.Error("swap readback mismatch")
	}
	d.Read(b2, got) // unwritten: zeros
	if got[7] != 0 {
		t.Error("unwritten block not zero")
	}
	if d.InUse() != 2 {
		t.Errorf("InUse = %d", d.InUse())
	}
	d.FreeBlock(b1)
	if d.InUse() != 1 {
		t.Errorf("InUse after free = %d", d.InUse())
	}
	// Freed block numbers are recycled.
	if b3 := d.AllocBlock(); b3 != b1 {
		t.Errorf("AllocBlock = %d, want recycled %d", b3, b1)
	}
}

func TestStats(t *testing.T) {
	m := NewPhysMem(512, 1)
	pt, _ := m.AllocFrame(0, KindPT)
	anon, _ := m.AllocFrame(0, KindAnon)
	st := m.Stats()
	if st.PageTableBytes != arch.PageSize || st.AnonBytes != arch.PageSize {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalBytes != 512*arch.PageSize {
		t.Errorf("total = %d", st.TotalBytes)
	}
	m.Put(0, pt)
	m.Put(0, anon)
}

func BenchmarkAllocFreePCP(b *testing.B) {
	m := NewPhysMem(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, _ := m.AllocFrame(0, KindAnon)
		m.Put(0, pfn)
	}
}
