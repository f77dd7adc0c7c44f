package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// TestMunmapPrunesFileMappings: unmapping a file mapping must drop its
// rmapHints record and release the space's registration in the file's
// reverse map. Before the fix, Munmap left both behind, so a long-lived
// space that mapped and unmapped files accumulated dead records and the
// file kept shooting down pages in spaces that no longer mapped it.
func TestMunmapPrunesFileMappings(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", 8*arch.PageSize)

	countMappers := func() int {
		n := 0
		f.ForEachMapper(func(mem.RMapTarget) { n++ })
		return n
	}

	va1, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := a.MmapFile(0, f, 4, 4*arch.PageSize, arch.PermRead, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.rmapHints); got != 2 {
		t.Fatalf("rmapHints after two MmapFiles = %d, want 2", got)
	}
	if got := countMappers(); got != 1 {
		t.Fatalf("file mappers = %d, want 1 (one space, two registrations)", got)
	}

	// A partial unmap keeps the record: the mapping still covers pages.
	if err := a.Munmap(0, va1, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.rmapHints); got != 2 {
		t.Fatalf("rmapHints after partial unmap = %d, want 2", got)
	}

	// Unmapping the first mapping in full prunes its record but keeps
	// the space registered for the surviving second mapping.
	if err := a.Munmap(0, va1, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.rmapHints); got != 1 {
		t.Fatalf("rmapHints after full unmap = %d, want 1", got)
	}
	if a.rmapHints[0].va != va2 {
		t.Fatalf("wrong record pruned: kept va %#x, want %#x", a.rmapHints[0].va, va2)
	}
	if got := countMappers(); got != 1 {
		t.Fatalf("file mappers after first unmap = %d, want 1", got)
	}

	// Unmapping the last mapping drops the registration entirely.
	if err := a.Munmap(0, va2, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.rmapHints); got != 0 {
		t.Fatalf("rmapHints after last unmap = %d, want 0", got)
	}
	if got := countMappers(); got != 0 {
		t.Fatalf("file mappers after last unmap = %d, want 0", got)
	}
	checkWF(t, a)
}

// TestMremapGrowKeepsFileMapper: a growing Mremap moves a file mapping,
// it does not unmap it — the old VAs go back to the allocator, but the
// file must keep the space as a mapper while the pages live on at the
// new address.
func TestMremapGrowKeepsFileMapper(t *testing.T) {
	const size = 4 * arch.PageSize
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", size)
	va, err := a.MmapFile(0, f, 0, size, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va, 7); err != nil {
		t.Fatal(err)
	}
	nva, err := a.Mremap(0, va, size, 2*size)
	if err != nil || nva == va {
		t.Fatalf("grow = %#x, %v", nva, err)
	}
	mappers := 0
	f.ForEachMapper(func(mem.RMapTarget) { mappers++ })
	if mappers != 1 || a.rmapLive.Load() != 1 {
		t.Fatalf("after the move: %d file mappers, %d rmap records, want 1 and 1", mappers, a.rmapLive.Load())
	}
	if b, err := a.Load(0, nva); err != nil || b != 7 {
		t.Fatalf("moved page reads %d, %v", b, err)
	}
	if again, _ := a.Mmap(0, size, arch.PermRW, 0); again != va {
		t.Fatalf("old range %#x not recycled: got %#x", va, again)
	}
	// The record moved with the mapping, so the old range's next tenant
	// leaving does not retire it — nor the object id the moved, not yet
	// faulted pages name their file by.
	if err := a.Munmap(0, va, size); err != nil {
		t.Fatal(err)
	}
	if a.rmapLive.Load() != 1 || a.rmapHints[0].va != nva || f.ID() == 0 {
		t.Fatalf("after the old range's next tenant left: %d records (first at %#x, mapping at %#x), file id %d",
			a.rmapLive.Load(), a.rmapHints[0].va, nva, f.ID())
	}
	if err := a.Store(0, nva+arch.PageSize, 8); err != nil {
		t.Fatalf("fault on a moved, never-touched file page: %v", err)
	}

	// A move of part of a mapping splits the record; unmapping where the
	// whole mapping used to be leaves the moved part mapped, registered
	// and reading its own file pages.
	g := mem.NewFile(m.Phys, "split", 2*size)
	gva, err := a.MmapFile(0, g, 0, 2*size, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, gva+size+arch.PageSize, 5); err != nil { // file page 5
		t.Fatal(err)
	}
	mva, err := a.Mremap(0, gva+size, size, 2*size)
	if err != nil || mva == gva+size {
		t.Fatalf("grow of the second half = %#x, %v", mva, err)
	}
	if err := a.Munmap(0, gva, 2*size); err != nil {
		t.Fatal(err)
	}
	if g.ID() == 0 {
		t.Fatal("file lost its object id while its moved half is still mapped")
	}
	if b, err := a.Load(0, mva+arch.PageSize); err != nil || b != 5 {
		t.Fatalf("moved half reads %d, %v at file page 5, want 5", b, err)
	}
	if err := a.Store(0, mva+2*arch.PageSize, 6); err != nil { // faults file page 6 in through the word
		t.Fatal(err)
	}
	pfn, err := g.GetPage(0, 6)
	if err != nil || m.Phys.Data(pfn)[0] != 6 {
		t.Fatalf("the moved half's third page is not file page 6: %v", err)
	}
	m.Phys.Put(0, pfn)
	checkQuiet(t, a)
}
