package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
)

// MaxOrder is the largest buddy order: order 18 blocks are 1 GiB, the
// largest page size CortenMM supports.
const MaxOrder = 18

const noBlock = int32(-1)

// buddy is a binary-buddy frame allocator, following Linux's design as
// described in §4.5. Free blocks of each order form doubly linked lists
// threaded through per-frame link arrays; frees eagerly coalesce buddies.
// Each NUMA zone owns one buddy over its PFN sub-range: the link arrays
// are indexed by zone-local frame number and base translates to/from
// absolute PFNs at the API boundary.
type buddy struct {
	mu     sync.Mutex
	n      int
	base   int32   // first absolute PFN of this buddy's range
	order  []uint8 // order of the block headed at this frame (free blocks)
	isFree []bool  // true when this frame heads a free block
	next   []int32
	prev   []int32
	heads  [MaxOrder + 1]int32
	// top is an upper bound on the highest free block head: pushFree
	// raises it, the top-down scans start at it and lower it to the first
	// free head they meet.
	top int32
	// heads64[i] counts the free block heads among frames 64i … 64i+63,
	// so that a top-down scan crosses a populate batch's allocated frames,
	// or the body of a block whose head coalescing moved down, 64 frames
	// to a step.
	heads64 []uint8
	// free counts free frames (not blocks); mutated only under mu with
	// plain arithmetic. Each exported operation publishes it to nfree on
	// unlock so watermark checks on allocation paths read it lock-free
	// without per-frame atomic traffic inside the coalescing loops.
	free_ int64
	nfree atomic.Int64
	// freeOrd counts free *blocks* per order (same locked-then-published
	// discipline); the published mirror feeds the fragmentation index and
	// the per-order rows in pressure figures without taking mu.
	freeOrd  [MaxOrder + 1]int64
	nfreeOrd [MaxOrder + 1]atomic.Int64
}

// publish mirrors the locked free counters into the lock-free ones; call
// before releasing mu in any operation that moved frames. Only the mu
// holder writes a mirror, so a load that reads the new value already
// stands for the store it skips — an operation moves a few orders, and
// each skipped store is one locked instruction fewer.
func (b *buddy) publish() {
	if b.nfree.Load() != b.free_ {
		b.nfree.Store(b.free_)
	}
	for o := range b.freeOrd {
		if b.nfreeOrd[o].Load() != b.freeOrd[o] {
			b.nfreeOrd[o].Store(b.freeOrd[o])
		}
	}
}

// init seeds a buddy over the absolute PFN range [base, base+nframes).
// reserveFirst skips the range's first frame — zone 0 reserves the NULL
// frame 0 this way, exactly as the flat allocator did.
func (b *buddy) init(base, nframes int, reserveFirst bool) {
	b.n = nframes
	b.base = int32(base)
	b.order = make([]uint8, nframes)
	b.isFree = make([]bool, nframes)
	b.heads64 = make([]uint8, nframes/64+1)
	b.next = make([]int32, nframes)
	b.prev = make([]int32, nframes)
	for i := range b.heads {
		b.heads[i] = noBlock
	}
	// Seed the free lists with maximal aligned blocks (local alignment;
	// zone bases are themselves huge-page aligned where sizes permit).
	pfn := 0
	if reserveFirst {
		pfn = 1
	}
	for pfn < nframes {
		o := 0
		for o < MaxOrder && pfn&(1<<(o+1)-1) == 0 && pfn+1<<(o+1) <= nframes {
			o++
		}
		// The alignment loop can overshoot what fits; shrink if needed.
		for pfn+1<<o > nframes {
			o--
		}
		b.pushFree(int32(pfn), o)
		pfn += 1 << o
	}
	b.publish()
}

func (b *buddy) pushFree(pfn int32, order int) {
	b.order[pfn] = uint8(order)
	b.isFree[pfn] = true
	b.prev[pfn] = noBlock
	b.next[pfn] = b.heads[order]
	if h := b.heads[order]; h != noBlock {
		b.prev[h] = pfn
	}
	b.heads[order] = pfn
	b.top = max(b.top, pfn)
	b.heads64[pfn>>6]++
	b.free_ += 1 << order
	b.freeOrd[order]++
}

func (b *buddy) unlink(pfn int32, order int) {
	if p := b.prev[pfn]; p != noBlock {
		b.next[p] = b.next[pfn]
	} else {
		b.heads[order] = b.next[pfn]
	}
	if n := b.next[pfn]; n != noBlock {
		b.prev[n] = b.prev[pfn]
	}
	b.isFree[pfn] = false
	b.heads64[pfn>>6]--
	b.free_ -= 1 << order
	b.freeOrd[order]--
}

// alloc removes one naturally aligned block of 2^order frames,
// returning its absolute head PFN.
func (b *buddy) alloc(order int) (arch.PFN, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pfn, ok := b.allocLocked(order)
	b.publish()
	return pfn + arch.PFN(b.base), ok
}

func (b *buddy) allocLocked(order int) (arch.PFN, bool) {
	o := order
	for o <= MaxOrder && b.heads[o] == noBlock {
		o++
	}
	if o > MaxOrder {
		return 0, false
	}
	pfn := b.heads[o]
	b.unlink(pfn, o)
	for o > order {
		o--
		b.pushFree(pfn+1<<o, o)
	}
	b.order[pfn] = uint8(order)
	return arch.PFN(pfn), true
}

// allocHigh removes one naturally aligned block of 2^order frames from
// the high-PFN end of the zone, splitting larger free blocks so the
// highest aligned sub-block is kept. Unmovable allocations (page-table
// pages) are placed this way: compaction cannot migrate them, so
// letting them land wherever the freelist head points would leave one
// immovable frame in nearly every large block and make order-9
// coalescing impossible no matter how much movable memory compaction
// shifts. Clustering them at the top — the same end compaction packs
// movable frames toward — keeps the zone's low blocks pure. This is
// the cheap analog of Linux's per-pageblock mobility grouping.
func (b *buddy) allocHigh(order int) (arch.PFN, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	// Blocks are disjoint, so the highest free head belongs to the block
	// containing the highest free frame; scan down for it.
	for pfn := b.highestFree(); pfn >= 0; pfn-- {
		if !b.isFree[pfn] || int(b.order[pfn]) < order {
			continue
		}
		o := int(b.order[pfn])
		b.unlink(pfn, o)
		// Keep the highest aligned sub-block, freeing everything below.
		for o > order {
			o--
			b.pushFree(pfn, o)
			pfn += 1 << o
		}
		b.order[pfn] = uint8(order)
		return arch.PFN(pfn) + arch.PFN(b.base), true
	}
	return 0, false
}

// highestFree returns the highest free block head (-1 if none), where
// every top-down scan starts, and tightens top to it.
func (b *buddy) highestFree() int32 {
	for b.top >= 0 && !b.isFree[b.top] {
		if b.heads64[b.top>>6] == 0 {
			b.top = b.top&^63 - 1
		} else {
			b.top--
		}
	}
	return b.top
}

// free returns a block (by absolute head PFN), coalescing with its
// buddy as far as possible.
func (b *buddy) free(pfn arch.PFN, order int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.freeLocked(int32(pfn)-b.base, order)
	b.publish()
}

func (b *buddy) freeLocked(pfn int32, order int) {
	for order < MaxOrder {
		bud := pfn ^ 1<<order
		if int(bud)+1<<order > b.n || !b.isFree[bud] || b.order[bud] != uint8(order) {
			break
		}
		b.unlink(bud, order)
		if bud < pfn {
			pfn = bud
		}
		order++
	}
	b.pushFree(pfn, order)
}

// allocBatch fills buf with order-0 frames (absolute PFNs) under a
// single lock acquisition (the refill path of the per-core caches),
// peeling whole free blocks — smallest order first, ascending PFNs
// within a block — and returning the unused tail of the last one. These
// are the frames, and the free lists, that splitting frame by frame
// arrives at: a split parks the upper halves on lists that were empty,
// so the next frames come from them, in address order, before any other
// block is touched. Returns the number of frames obtained.
func (b *buddy) allocBatch(buf []arch.PFN) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	got := 0
	for got < len(buf) {
		o := 0
		for o <= MaxOrder && b.heads[o] == noBlock {
			o++
		}
		if o > MaxOrder {
			break
		}
		pfn := b.heads[o]
		b.unlink(pfn, o)
		take := min(1<<o, len(buf)-got)
		for i := range take {
			buf[got+i] = arch.PFN(pfn+b.base) + arch.PFN(i)
		}
		got += take
		b.freeRun(pfn+int32(take), 1<<o-take)
	}
	return got
}

// freeBatch returns order-0 frames (absolute PFNs) under a single lock
// acquisition, each ascending stretch of consecutive PFNs as one run.
func (b *buddy) freeBatch(pfns []arch.PFN) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < len(pfns); {
		j := i + 1
		for j < len(pfns) && pfns[j] == pfns[j-1]+1 {
			j++
		}
		b.freeRun(int32(pfns[i])-b.base, j-i)
		i = j
	}
	b.publish()
}

// freeRun frees the n frames from pfn on as the maximal naturally
// aligned blocks that tile them: one coalescing chain per block, not one
// per frame. Eager coalescing keeps the free lists in their normal form
// — the maximal aligned blocks of the free set — which depends on the
// set alone, so the lists end as if each frame had been freed by itself.
func (b *buddy) freeRun(pfn int32, n int) {
	for n > 0 {
		o := min(bits.TrailingZeros32(uint32(pfn)), bits.Len(uint(n))-1, MaxOrder)
		b.freeLocked(pfn, o)
		pfn += 1 << o
		n -= 1 << o
	}
}

func (b *buddy) freeCount() uint64 { return uint64(b.nfree.Load()) }

// freeBlocksAt reports the published count of free blocks of exactly
// the given order (lock-free).
func (b *buddy) freeBlocksAt(order int) int64 { return b.nfreeOrd[order].Load() }

// allocHighFrame takes the highest free frame strictly above the
// absolute PFN above that lies in a free block of order below dontSplit,
// freeing the rest of that block back (where it re-coalesces), and
// reports false when no such frame exists. Compaction uses it for
// migration targets: pulling targets from high PFNs while evacuating low
// PFNs is what lets low blocks re-form. Blocks of order >= dontSplit are
// left intact — they are the goal, not raw material.
func (b *buddy) allocHighFrame(above arch.PFN, dontSplit int) (arch.PFN, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	// Blocks are disjoint, so the first eligible head met top-down heads
	// the block holding the highest eligible frame.
	for pfn := b.highestFree(); pfn >= 0; pfn-- {
		if !b.isFree[pfn] || int(b.order[pfn]) >= dontSplit {
			continue
		}
		o := int(b.order[pfn])
		top := pfn + 1<<o - 1
		if arch.PFN(top+b.base) <= above {
			return 0, false
		}
		b.unlink(pfn, o)
		b.freeRun(pfn, 1<<o-1)
		b.order[top] = 0
		return arch.PFN(top + b.base), true
	}
	return 0, false
}

// forEachFree visits every free block (absolute head PFN + order) under
// the buddy lock — the auditor's view of the free lists.
func (b *buddy) forEachFree(fn func(pfn arch.PFN, order int)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for o := 0; o <= MaxOrder; o++ {
		for p := b.heads[o]; p != noBlock; p = b.next[p] {
			fn(arch.PFN(p+b.base), o)
		}
	}
}

// pcp sizing: caches hold up to pcpHigh order-0 frames and move
// pcpBatch frames at a time to/from the buddy, like Linux's pcplists.
const (
	pcpBatch = 64
	pcpHigh  = 128
)

// pcpCache is a per-core cache of order-0 frames. The owning core is by
// far the dominant user, but deferred frees (RCU callbacks, reverse-map
// walks) may run on other goroutines, so a mutex — virtually always
// uncontended — guards the list.
type pcpCache struct {
	mu     sync.Mutex
	frames []arch.PFN
	_      [40]byte
}

func (c *pcpCache) pop() (arch.PFN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return 0, false
	}
	pfn := c.frames[len(c.frames)-1]
	c.frames = c.frames[:len(c.frames)-1]
	return pfn, true
}

// popN pops up to len(out) frames under one lock acquisition.
func (c *pcpCache) popN(out []arch.PFN) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := min(len(out), len(c.frames))
	copy(out[:n], c.frames[len(c.frames)-n:])
	c.frames = c.frames[:len(c.frames)-n]
	return n
}

func (c *pcpCache) fill(batch []arch.PFN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, batch...)
}

// pushN caches the freed frames buf[:k]. If that takes the cache to its
// high-water mark, the oldest batch leaves through buf for the caller to
// return to the buddy (n = pcpBatch, else 0): the cache keeps the frames
// freed last, whose payloads are the warm ones, and what it held longest
// — the stragglers that keep their buddies from coalescing — goes first.
func (c *pcpCache) pushN(buf *[pcpBatch]arch.PFN, k int) (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, buf[:k]...)
	if len(c.frames) < pcpHigh {
		return 0
	}
	n = copy(buf[:], c.frames)
	c.frames = c.frames[:copy(c.frames, c.frames[n:])]
	return n
}

func (c *pcpCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// drain steals the cache's entire contents — the allocation slow path
// returns them to the buddy so they can coalesce and serve any core.
func (c *pcpCache) drain() []arch.PFN {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.frames
	c.frames = nil
	return fs
}

// snapshot copies the cache contents for the auditor.
func (c *pcpCache) snapshot() []arch.PFN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]arch.PFN(nil), c.frames...)
}
