package core

import (
	"fmt"
	"io"
	"sort"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

// Region is one maximal run of pages with identical state — what a
// /proc/<pid>/maps line reports. CortenMM has no VMA list, so regions
// are *derived* by walking the page table (the enumerate-the-address-
// space path that §6.2 calls CortenMM's worst case); they are
// descriptive output, never an input to any MM operation.
type Region struct {
	Start, End arch.Vaddr
	Kind       pt.StatusKind
	Perm       arch.Perm
	// Resident counts pages currently backed by frames.
	Resident int
}

// Size returns the region length in bytes.
func (r Region) Size() uint64 { return uint64(r.End - r.Start) }

// String renders the region like a /proc/maps line.
func (r Region) String() string {
	return fmt.Sprintf("%012x-%012x %s %-13v resident=%d", uint64(r.Start), uint64(r.End),
		r.Perm, r.Kind, r.Resident)
}

// Regions enumerates the address space as maximal uniform regions. The
// whole walk runs inside one transaction, so the snapshot is atomic.
func (a *AddrSpace) Regions(core int) ([]Region, error) {
	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	var out []Region
	flush := func(r *Region) {
		if r.End > r.Start {
			out = append(out, *r)
		}
	}
	var cur Region
	visit := func(lo, hi arch.Vaddr, kind pt.StatusKind, perm arch.Perm, resident int) {
		// Normalize: a mapped COW page belongs to the same logical
		// region as its writable neighbours.
		normPerm := logicalPerm(perm) &^ (arch.PermCOW | arch.PermShared)
		if cur.End == lo && cur.Kind == regionKind(kind) && cur.Perm == normPerm {
			cur.End = hi
			cur.Resident += resident
			return
		}
		flush(&cur)
		cur = Region{Start: lo, End: hi, Kind: regionKind(kind), Perm: normPerm, Resident: resident}
	}
	err = c.Iterate(0, arch.MaxVaddr, func(r Run) error {
		kind, resident := r.Status.Kind, 0
		if kind == pt.StatusMapped { // its region is its origin's
			kind, resident = r.Origin.Kind, int(r.Pages)
		}
		visit(r.VA, r.End(), kind, r.Status.Perm, resident)
		return nil
	})
	if err != nil {
		return nil, err
	}
	flush(&cur)
	return out, nil
}

// chunk is one piece of the allocated address space as the upper levels
// of the page table describe it: a level-1 table (span 2 MiB), or a
// leaf or metadata entry at level 2 or above.
type chunk struct {
	base  arch.Vaddr
	span  uint64 // bytes
	pages uint64 // allocated (mapped or marked) pages inside, each once
	table bool   // a level-1 table (else one entry at level 2 or above)
	huge  bool   // one huge leaf (else, if not a table, a metadata entry)
}

// chunks enumerates the allocated address space in address order — the
// one list every sweep (reclaim, the collapse scanner, HugeBytes, OOM
// sizing and teardown) derives its ranges from, in place of a VMA list.
// It holds a whole-space transaction only for a walk of the upper
// levels: a level-1 table contributes its Present+MetaCnt counters, not
// its 512 words (MetaCnt counts marked entries only, so a mapped page
// with an origin word beside its PTE counts once). Callers do
// their per-chunk work afterwards in transactions of their own, so the
// list is a hint like any unlocked snapshot. Nil once Destroy has begun;
// a daemon caller holds a visit (enter), so Destroy waits for it.
func (a *AddrSpace) chunks(core int) []chunk {
	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		return nil
	}
	defer c.Close()
	var out []chunk
	entry := func(base arch.Vaddr, level int, huge bool) {
		span := arch.SpanBytes(level)
		out = append(out, chunk{base: base, span: span, pages: span / arch.PageSize, huge: huge})
	}
	v := walkOps{
		readOnly: true,
		onLeaf: func(_ arch.PFN, _, level int, entryLo, _, _ arch.Vaddr, _ uint64) error {
			entry(entryLo, level, level > 1)
			return nil
		},
		onLeafTable: func(table arch.PFN, base arch.Vaddr) error {
			// A transaction cannot unlink its own covering page, so an
			// emptied table may stay linked; it is not a chunk.
			if st := a.state(table); st.Present+st.MetaCnt > 0 {
				out = append(out, chunk{base: base, span: arch.SpanBytes(2), pages: uint64(st.Present + st.MetaCnt), table: true})
			}
			return nil
		},
		onMeta: func(pfn arch.PFN, idx, level int, entryLo, _, _ arch.Vaddr) error {
			if a.tree.Meta(pfn, idx) != 0 {
				entry(entryLo, level, false)
			}
			return nil
		},
	}
	_ = c.walk(&v, 0, arch.MaxVaddr)
	return out
}

// chunkAt returns the index of the first chunk at or above hand,
// wrapping to 0 — where a VA clock hand resumes.
func chunkAt(chunks []chunk, hand arch.Vaddr) int {
	i := sort.Search(len(chunks), func(i int) bool { return chunks[i].base >= hand })
	if i == len(chunks) {
		return 0
	}
	return i
}

// regionKind folds residency states into the logical backing class for
// coalescing: an on-demand anonymous region stays one region whether
// its pages are unfaulted, resident (a mapped page with no origin), or
// swapped.
func regionKind(k pt.StatusKind) pt.StatusKind {
	if k == pt.StatusInvalid || k == pt.StatusSwapped {
		return pt.StatusPrivateAnon
	}
	return k
}

// DumpLayout writes the /proc/maps-style layout to w.
func (a *AddrSpace) DumpLayout(core int, w io.Writer) error {
	regions, err := a.Regions(core)
	if err != nil {
		return err
	}
	for _, r := range regions {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies the Figure-12 well-formedness invariant on
// the live page table. The address space must be quiescent (no
// concurrent transactions); tests call it after every workload.
func (a *AddrSpace) CheckInvariants() error {
	return a.tree.CheckWellFormed()
}
