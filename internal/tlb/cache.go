package tlb

import (
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

// This file is the per-core translation cache: a fixed-size
// set-associative array of seqlock-published slots. Every field of a
// slot is atomic, so lookups and fills are plain loads and stores with
// no mutex anywhere on the path. The cache is written only through its
// owning core's API calls (Insert, FlushLocal, inbox drain, LATR
// sweep); remote cores never touch it — cross-core invalidation goes
// through the epoch cells (epoch.go) instead. The per-slot sequence
// word exists because tests and the simulator may drive one core's API
// from several goroutines: a torn read is detected and treated as a
// miss, which is always safe for a cache.

// Geometry: nSets sets of nWays slots per core. 2048 entries models an
// 8-MiB reach, in the range of a real L2 TLB. A slot is five words, so
// a set is 160 bytes (both arrays start on a cache line, see
// NewMachineNUMA) and a probe that compares tags first touches nothing
// else.
const (
	setBits = 9
	nSets   = 1 << setBits
	nWays   = 4
)

// Huge-entry geometry: every core also carries a second, smaller
// set-associative array for 2-MiB and 1-GiB leaves, indexed by the
// leaf's natural span base — the split-structure design of real L2
// STLBs, which keep separate huge-entry arrays precisely because a
// page-number index would leave a huge leaf reachable at only one of
// its 512 offsets. 32 sets × nWays = 128 entries ≈ a 256-MiB reach at
// 2 MiB.
const (
	hugeSetBits = 5
	hugeSets    = 1 << hugeSetBits
)

// hugeLevels are the leaf levels the huge array caches (2 = 2 MiB,
// 3 = 1 GiB). Lookup probes both alignments on a base-array miss.
var hugeLevels = [2]int{2, 3}

// Tag word layout: valid | referenced | ASID | VPN, 0 when the slot is
// empty. A huge entry's VPN is its span base's, whose low bits are zero
// and carry the leaf level instead, so a 2-MiB and a 1-GiB entry at one
// base never match each other's probes.
const (
	tagValid = uint64(1) << 63
	// tagRef is the not-recently-used bit: set by a hit, cleared when the
	// set ages. It is the one bit written outside the seqlock (a CAS on
	// the tag word alone), so every comparison of tags masks it.
	tagRef   = uint64(1) << 62
	vpnBits  = arch.VABits - arch.PageShift
	asidBits = 62 - vpnBits
	// noTag stands for a translation the tag cannot name. No slot's
	// masked tag equals it, so probes for it miss and fills of it are
	// dropped — which a cache may always do.
	noTag = tagRef
)

// makeTag packs (asid, page) into a tag word with the referenced bit
// clear; low is the level of a huge entry, 0 for a base page. An ASID
// or address too wide for its field yields noTag, never a truncation
// that could alias a narrower one.
func makeTag(asid ASID, va arch.Vaddr, low int) uint64 {
	if uint64(asid)>>asidBits != 0 || va >= arch.MaxVaddr {
		return noTag
	}
	return tagValid | uint64(asid)<<vpnBits | uint64(va)>>arch.PageShift | uint64(low)
}

// tagASID extracts the ASID of an occupied slot's tag.
func tagASID(tag uint64) ASID { return ASID(tag &^ (tagValid | tagRef) >> vpnBits) }

// slot is one cache entry. seq is even when the slot is stable and odd
// while a writer is mid-update; writers claim it by CAS so a lost race
// skips the write (dropping a fill or a precise flush is always safe —
// the generation mechanism still bounds staleness).
type slot struct {
	seq atomic.Uint64
	tag atomic.Uint64
	gen atomic.Uint64 // owning epoch cell's generation at fill time
	trw atomic.Uint64 // packed translation
	// page is the 4-KiB entry's frame bytes, nil when the fill had none.
	// It is as valid as trw's PFN: a frame's payload is fixed for its
	// life, and the life outlasts every hit the generations allow. An
	// emptied or generation-stale slot keeps it reachable until the next
	// fill, but never serves it.
	page atomic.Pointer[[arch.PageSize]byte]
}

// read snapshots a slot whose tag word matched want. ok=false means a
// writer was active, the fields were torn or the slot now holds another
// entry; the caller treats the slot as non-matching.
func (s *slot) read(want uint64) (tag, gen, trw uint64, page *[arch.PageSize]byte, seq uint64, ok bool) {
	seq = s.seq.Load()
	tag = s.tag.Load()
	gen = s.gen.Load()
	trw = s.trw.Load()
	page = s.page.Load()
	return tag, gen, trw, page, seq, seq&1 == 0 && tag&^tagRef == want && s.seq.Load() == seq
}

// write publishes a new entry if the slot is still at version seq. gen
// and page are stored only when they change: a refill at the same
// generation, or a page-less fill over a page-less slot, costs no
// atomic store for them.
func (s *slot) write(seq, tag, gen, trw uint64, page *[arch.PageSize]byte) bool {
	if !s.seq.CompareAndSwap(seq, seq+1) {
		return false
	}
	s.tag.Store(tag)
	if s.gen.Load() != gen {
		s.gen.Store(gen)
	}
	s.trw.Store(trw)
	if s.page.Load() != page {
		s.page.Store(page)
	}
	s.seq.Store(seq + 2)
	return true
}

// clear empties the slot if it is still at version seq. page is left
// alone: an empty slot's page is never read, and the next fill replaces
// it.
func (s *slot) clear(seq uint64) {
	if !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.tag.Store(0)
	s.seq.Store(seq + 2)
}

// refreshGen re-stamps a validated entry with the current cell
// generation so the next lookup takes the fast path again.
func (s *slot) refreshGen(seq, gen uint64) {
	if !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.gen.Store(gen)
	s.seq.Store(seq + 2)
}

// packTr packs a translation into one published word: PFN in the high
// bits, then the 16-bit permission, then the leaf level.
func packTr(tr pt.Translation) uint64 {
	return uint64(tr.PFN)<<19 | uint64(tr.Perm)<<3 | uint64(tr.Level)&7
}

func unpackTr(w uint64) pt.Translation {
	return pt.Translation{PFN: arch.PFN(w >> 19), Perm: arch.Perm(w >> 3), Level: int(w & 7)}
}

// setIndex hashes (asid, page number) to a set. Fibonacci multipliers
// spread the sequential VA patterns our workloads generate.
func setIndex(asid ASID, va arch.Vaddr) uint64 {
	h := uint64(va>>arch.PageShift)*0x9E3779B97F4A7C15 + uint64(asid)*0xA24BAED4963EE407
	return h >> (64 - setBits)
}

// hugeSetIndex hashes (asid, span base, level) to a huge-array set.
// Both huge levels share one array; the level participates in the hash
// and in the tag, so a 2-MiB and a 1-GiB entry at the same base never
// alias.
func hugeSetIndex(asid ASID, base arch.Vaddr, level int) uint64 {
	h := (uint64(base)>>arch.SpanShift(level-1))*0x9E3779B97F4A7C15 +
		uint64(asid)*0xA24BAED4963EE407 + uint64(level)*0x94D049BB133111EB
	return h >> (64 - hugeSetBits)
}
