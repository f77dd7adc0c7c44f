package mem

import (
	"fmt"
	"strings"

	"cortenmm/internal/arch"
)

// AuditReport is the result of a PhysMem.Audit pass: a frame-table walk
// cross-checked against the kind counters, the per-node zone counters
// and the allocator's free lists. An empty Problems slice means every
// invariant held.
type AuditReport struct {
	// Problems lists every invariant violation found, one per line.
	Problems []string
	// ByKind is the per-kind frame count derived from the descriptors.
	ByKind [numKinds]int64
	// FreeByDesc is the number of frames with Ref == 0 per the table.
	FreeByDesc uint64
	// BuddyFree and PCPFree are the allocator's own free counts.
	BuddyFree uint64
	// PCPFree is the total frames sitting in per-core caches.
	PCPFree uint64
	// NodeFreeByDesc is FreeByDesc broken down by owning zone.
	NodeFreeByDesc []uint64
	// NodeFree is each zone's own free count (zone buddy + the pcp
	// caches of the zone's cores).
	NodeFree []uint64
	// KeptPayloads is the number of free frames holding a page buffer
	// for their next owner; all of them sit in pcp caches.
	KeptPayloads uint64
}

// Ok reports whether the audit found no violations.
func (r *AuditReport) Ok() bool { return len(r.Problems) == 0 }

// String renders the report for test failures.
func (r *AuditReport) String() string {
	if r.Ok() {
		return fmt.Sprintf("audit clean: free=%d (buddy=%d pcp=%d)",
			r.FreeByDesc, r.BuddyFree, r.PCPFree)
	}
	return fmt.Sprintf("audit found %d problem(s):\n  %s",
		len(r.Problems), strings.Join(r.Problems, "\n  "))
}

func (r *AuditReport) addf(format string, args ...any) {
	if len(r.Problems) < 32 { // cap the noise from cascading failures
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Audit walks the frame table and cross-checks it against the kind
// counters, the per-node zone layout and the buddy + pcp free lists.
// It verifies, per frame: Ref == 0 implies KindFree, MapCount == 0 and
// no stale tail marker; Ref > 0 implies a non-free kind and MapCount
// within [0, Ref] for mapped kinds; tail markers point at a live head
// whose order covers the member; the descriptor's node tag matches the
// owning zone. Globally: descriptor-derived kind totals equal the kinds
// counters, descriptor-derived free frames equal buddy + pcp free
// counts — per zone and in total (a mismatch is a leaked, double-freed
// or zone-hopping frame) — every frame on a zone's free list has a free
// descriptor inside that zone, and every pcp cache holds only its
// core's home-node frames. Payloads: a free frame publishes none; one
// in a buddy free list keeps none either; a kept payload (pcp-cached
// frames only) is exactly one page, to be cleared by whoever claims it;
// a page-table frame has neither.
//
// Audit takes no global lock: callers must quiesce the system first
// (no concurrent allocation/free, RCU drained) or the counts will be
// torn. Tests run it after cpusim.Machine.Quiesce.
func (m *PhysMem) Audit() AuditReport {
	var r AuditReport
	r.NodeFreeByDesc = make([]uint64, len(m.zones))
	r.NodeFree = make([]uint64, len(m.zones))
	// Pass 1: the frame table. Frame 0 is the reserved NULL frame and
	// lives outside both the table invariants and the free lists.
	for pfn := 1; pfn < len(m.frames); pfn++ {
		d := &m.frames[pfn]
		if int(d.Node) != m.zoneOf(arch.PFN(pfn)) {
			r.addf("frame %#x: node tag %d but owning zone is %d",
				pfn, d.Node, m.zoneOf(arch.PFN(pfn)))
		}
		if t := d.tail.Load(); t != 0 {
			head := int(t - 1)
			if head < 0 || head >= pfn {
				r.addf("frame %#x: tail marker points at bad head %#x", pfn, head)
				continue
			}
			h := &m.frames[head]
			if h.Ref.Load() <= 0 {
				r.addf("frame %#x: tail of free head %#x", pfn, head)
			}
			if head+1<<h.order.Load() <= pfn {
				r.addf("frame %#x: outside head %#x order %d span", pfn, head, h.order.Load())
			}
			continue
		}
		ref := d.Ref.Load()
		mc := d.MapCount()
		switch {
		case ref < 0:
			r.addf("frame %#x: negative refcount %d", pfn, ref)
		case ref == 0:
			if d.Kind != KindFree {
				r.addf("frame %#x: Ref==0 but kind %s", pfn, d.Kind)
			}
			if mc != 0 {
				r.addf("frame %#x: free with MapCount %d", pfn, mc)
			}
			if d.data.Load() != nil {
				r.addf("frame %#x: free but still publishes a payload", pfn)
			}
			if p := d.spare.Load(); p != nil {
				r.KeptPayloads++
				if len(*p) != arch.PageSize {
					r.addf("frame %#x: kept payload is %d bytes, not one page", pfn, len(*p))
				}
			}
			r.FreeByDesc++
			r.NodeFreeByDesc[m.zoneOf(arch.PFN(pfn))]++
		default:
			if d.Kind == KindFree {
				r.addf("frame %#x: Ref==%d but marked free", pfn, ref)
				continue
			}
			r.ByKind[d.Kind] += 1 << d.order.Load()
			if d.Kind == KindPT && (d.data.Load() != nil || d.spare.Load() != nil) {
				r.addf("frame %#x: page-table frame carries a data payload", pfn)
			}
			if (d.Kind == KindAnon || d.Kind == KindFile) && mc > ref {
				r.addf("frame %#x (%s): MapCount %d exceeds Ref %d — refcount skew",
					pfn, d.Kind, mc, ref)
			}
		}
	}
	// Pass 2: kind counters vs the table.
	for k := KindAnon; k < numKinds; k++ {
		if got, want := m.kinds[k].Load(), r.ByKind[k]; got != want {
			r.addf("kind %s: counter says %d frames, table says %d", k, got, want)
		}
	}
	// Pass 3: allocator free lists vs the table, per zone and globally.
	// The walk also recounts free blocks per order and checks the
	// published per-order mirrors (which feed the fragmentation index),
	// so compaction/migration bugs that skew them are caught here.
	for zi := range m.zones {
		z := &m.zones[zi]
		zfree := z.buddy.freeCount()
		r.BuddyFree += zfree
		r.NodeFree[zi] = zfree
		var byOrder [MaxOrder + 1]int64
		z.buddy.forEachFree(func(pfn arch.PFN, order int) {
			byOrder[order]++
			if m.zoneOf(pfn) != zi || m.zoneOf(pfn+arch.PFN(1<<order)-1) != zi {
				r.addf("zone %d free list holds out-of-zone block %#x order %d", zi, pfn, order)
				return
			}
			for i := arch.PFN(0); i < 1<<order; i++ {
				d := &m.frames[pfn+i]
				if d.Ref.Load() != 0 || d.Kind != KindFree || d.tail.Load() != 0 {
					r.addf("zone %d free list holds live frame %#x (block %#x order %d)",
						zi, pfn+i, pfn, order)
					return
				}
				if d.spare.Load() != nil {
					r.addf("zone %d free list frame %#x (block %#x order %d) keeps a payload",
						zi, pfn+i, pfn, order)
					return
				}
			}
		})
		for o := 0; o <= MaxOrder; o++ {
			if got := z.buddy.freeBlocksAt(o); got != byOrder[o] {
				r.addf("zone %d: order-%d counter says %d free blocks, list walk says %d",
					zi, o, got, byOrder[o])
			}
		}
	}
	r.PCPFree = m.pcpCached()
	if r.FreeByDesc != r.BuddyFree+r.PCPFree {
		r.addf("leak: %d frames free by descriptor, %d in allocator (buddy %d + pcp %d)",
			r.FreeByDesc, r.BuddyFree+r.PCPFree, r.BuddyFree, r.PCPFree)
	}
	for i := range m.pcp {
		home := m.coreNode(i)
		for _, pfn := range m.pcp[i].snapshot() {
			d := &m.frames[pfn]
			if d.Ref.Load() != 0 || d.Kind != KindFree || d.tail.Load() != 0 {
				r.addf("pcp cache %d holds live frame %#x", i, pfn)
			}
			if z := m.zoneOf(pfn); z != home {
				r.addf("pcp cache %d (node %d) holds node-%d frame %#x", i, home, z, pfn)
			} else {
				r.NodeFree[z]++
			}
		}
	}
	// Per-zone free totals must match the descriptors: zone sums equal
	// the global cross-check, so a clean global count with skewed zone
	// counts means a frame was freed into the wrong zone.
	for zi := range m.zones {
		if r.NodeFreeByDesc[zi] != r.NodeFree[zi] {
			r.addf("zone %d: %d frames free by descriptor, %d in allocator",
				zi, r.NodeFreeByDesc[zi], r.NodeFree[zi])
		}
	}
	return r
}
