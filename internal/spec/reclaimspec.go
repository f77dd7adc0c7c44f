package spec

import "fmt"

// ReclaimModel is the rely-guarantee interference model of
// internal/core's reclaim paths against in-flight transactions. Three
// actors interleave over a tiny machine (3 VAs, 2 frames, so populate
// must go through reclaim to succeed):
//
//   - T (core 0) runs a populate transaction over va0+va1: range-lock,
//     allocate+map each page, and on allocation failure either invoke
//     the direct-reclaim hook (bounded, like allocSlow's reclaim
//     rounds) or unwind every undo record, retry once, then return
//     ENOMEM — PR 5's self-unwinding retry loop.
//   - R (core 1) is the background sweep: clock hand over all VAs,
//     second-chance A-bit clear, swap write submitted (env decides
//     whether it succeeds), and only on a completed write
//     unmap-then-free through the RCU monitor.
//   - D (core 2) is a lockless RCU reader: enters a read section,
//     loads a mapping, dereferences the frame, exits.
//
// Freed frames pass through a monitor state holding the snapshot of
// in-section readers (advspec.go's Snap idiom); the environment may
// only recycle a frame once its snapshot drains. Checked guarantees:
// no frame is freed or recycled while still mapped, no frame is
// recycled while an RCU reader that saw it is still in its section, no
// frame is freed twice across the OOM unwind, and direct reclaim never
// re-enters a VA the reclaiming core has transaction-locked.
//
// Seeded bugs: FreeWithoutBarrier recycles monitor frames without
// waiting for the reader snapshot; EagerFreeOnSwap frees the frame
// when writeback completes but before the page is unmapped;
// NoTxGuard lets the direct-reclaim candidate scan pick VAs locked by
// the reclaiming core itself; DoubleFreeOnUnwind forgets to clear the
// undo record after an unwind step.
type ReclaimModel struct {
	FreeWithoutBarrier bool
	EagerFreeOnSwap    bool
	NoTxGuard          bool
	DoubleFreeOnUnwind bool
}

const (
	rcVAs    = 3
	rcFrames = 2
)

const (
	rfFree uint8 = iota
	rfUsed
	rfMonitor
)

// T program counter.
const (
	tLock0 uint8 = iota
	tLock1
	tAlloc
	tMap
	tUnwind
	tDoneOK
	tDoneNOMEM
)

type rcState struct {
	Map     [rcVAs]int8 // va -> frame, -1 unmapped
	Swapped [rcVAs]bool
	A       [rcVAs]bool // accessed bit
	Lock    [rcVAs]int8 // -1 free, else owner core
	Frame   [rcFrames]uint8
	Snap    [rcFrames]uint8 // reader snapshot captured at monitor enqueue
	FGen    [rcFrames]uint8 // bumped on every recycle

	TPC      uint8
	TIdx     uint8 // which of va0/va1 T is populating
	TFrame   int8  // frame allocated, not yet mapped
	TUndoF   uint8 // bitmask: frames allocated this attempt
	TUndoVA  uint8 // bitmask: vas mapped this attempt
	TRetried bool
	THooked  bool // direct reclaim already used for this allocation
	TDva     int8 // candidate va locked by direct reclaim, -1 none

	RHand  uint8
	RPh    uint8 // 0 scan, 1 submitted, 2 wb-ok, 3 wb-fail, 4 unmapped, 5 freed-early
	RVA    int8
	RFrame int8

	DPC    uint8 // 0 begin, 1 load, 2 access, 3 end, 4 done
	DInRCU bool
	DVA    int8
	DFrame int8
	DGen   uint8

	Bad string
}

func (s rcState) Key() string { return fmt.Sprint(s) }

func (s *rcState) rcuMask() uint8 {
	if s.DInRCU {
		return 1
	}
	return 0
}

func (m *ReclaimModel) Init() State {
	s := rcState{TFrame: -1, TDva: -1, RVA: -1, RFrame: -1, DVA: -1, DFrame: -1}
	for i := range s.Map {
		s.Map[i] = -1
	}
	for i := range s.Lock {
		s.Lock[i] = -1
	}
	// va2 is pre-mapped (cold) to frame1; only frame0 starts free, so
	// populating va0+va1 forces the interference we want to check.
	s.Map[2] = 1
	s.Frame[1] = rfUsed
	return s
}

// monitorFree enqueues f on the RCU monitor with the current reader
// snapshot.
func (s *rcState) monitorFree(f int8) {
	s.Frame[f] = rfMonitor
	s.Snap[f] = s.rcuMask()
}

func (m *ReclaimModel) Next(st State) []Step {
	s := st.(rcState)
	if s.Bad != "" {
		return nil
	}
	var steps []Step

	steps = append(steps, m.tSteps(s)...)
	steps = append(steps, m.rSteps(s)...)
	steps = append(steps, m.dSteps(s)...)

	// Environment: the RCU monitor recycles a frame once its reader
	// snapshot has drained (or immediately, with the seeded bug).
	for f := int8(0); f < rcFrames; f++ {
		if s.Frame[f] == rfMonitor && (s.Snap[f] == 0 || m.FreeWithoutBarrier) {
			n := s
			n.Frame[f] = rfFree
			n.FGen[f]++
			n.Snap[f] = 0
			steps = append(steps, Step{fmt.Sprintf("env:free(%d)", f), n})
		}
	}
	return steps
}

func (m *ReclaimModel) tSteps(s rcState) []Step {
	var steps []Step
	switch s.TPC {
	case tLock0, tLock1:
		va := int8(s.TPC - tLock0)
		if s.Lock[va] == -1 {
			n := s
			n.Lock[va] = 0
			n.TPC++
			steps = append(steps, Step{fmt.Sprintf("t:lock(%d)", va), n})
		}
	case tAlloc:
		if s.TDva >= 0 {
			// Direct reclaim holds a candidate: swap it out and route
			// the frame through the monitor.
			va := s.TDva
			n := s
			f := n.Map[va]
			n.Map[va] = -1
			n.Swapped[va] = true
			n.monitorFree(f)
			n.Lock[va] = -1
			n.TDva = -1
			steps = append(steps, Step{fmt.Sprintf("t:dswap(%d)", va), n})
			break
		}
		if f := freeFrame(&s); f >= 0 {
			n := s
			n.Frame[f] = rfUsed
			n.TUndoF |= 1 << uint(f)
			n.TFrame = f
			n.TPC = tMap
			steps = append(steps, Step{fmt.Sprintf("t:alloc(%d)", f), n})
			break
		}
		// Allocation failed: try the direct-reclaim hook once per
		// allocation, then wait on in-flight monitor frames, then
		// unwind.
		hooked := false
		if !s.THooked {
			for va := int8(0); va < rcVAs; va++ {
				if s.Map[va] < 0 || s.Swapped[va] {
					continue
				}
				self := s.Lock[va] == 0
				if s.Lock[va] != -1 && !(m.NoTxGuard && self) {
					continue
				}
				hooked = true
				if m.NoTxGuard && self && !s.A[va] {
					n := s
					n.Bad = fmt.Sprintf("direct reclaim re-entered va%d, transaction-locked by the reclaiming core", va)
					steps = append(steps, Step{fmt.Sprintf("t:dlock_self(%d)", va), n})
					continue
				}
				if s.A[va] {
					// Second chance: clear and move on.
					n := s
					n.A[va] = false
					steps = append(steps, Step{fmt.Sprintf("t:dclear(%d)", va), n})
					continue
				}
				n := s
				n.Lock[va] = 0
				n.THooked = true
				n.TDva = va
				steps = append(steps, Step{fmt.Sprintf("t:dlock(%d)", va), n})
			}
		}
		if hooked {
			break
		}
		for f := int8(0); f < rcFrames; f++ {
			if s.Frame[f] == rfMonitor {
				return steps // wait for env:free, then retry the alloc
			}
		}
		n := s
		n.TPC = tUnwind
		steps = append(steps, Step{"t:oom", n})
	case tMap:
		va := int8(s.TIdx)
		n := s
		n.Map[va] = n.TFrame
		n.A[va] = false
		n.TUndoVA |= 1 << uint(va)
		n.TFrame = -1
		n.THooked = false
		n.TIdx++
		if n.TIdx < 2 {
			n.TPC = tAlloc
		} else {
			n.TPC = tDoneOK
		}
		steps = append(steps, Step{fmt.Sprintf("t:map(%d)", va), n})
	case tUnwind:
		if s.TUndoF != 0 {
			f := highBit(s.TUndoF)
			n := s
			if n.Frame[f] != rfUsed {
				n.Bad = fmt.Sprintf("unwind freed frame %d twice", f)
				steps = append(steps, Step{fmt.Sprintf("t:unwind(%d)", f), n})
				break
			}
			for va := int8(0); va < rcVAs; va++ {
				if n.Map[va] == f && n.TUndoVA&(1<<uint(va)) != 0 {
					n.Map[va] = -1
					n.TUndoVA &^= 1 << uint(va)
				}
			}
			n.monitorFree(f)
			if !m.DoubleFreeOnUnwind {
				n.TUndoF &^= 1 << uint(f)
			}
			steps = append(steps, Step{fmt.Sprintf("t:unwind(%d)", f), n})
			break
		}
		n := s
		if !n.TRetried {
			n.TRetried = true
			n.TIdx = 0
			n.TUndoVA = 0
			n.THooked = false
			n.TPC = tAlloc
			steps = append(steps, Step{"t:retry", n})
		} else {
			for va := int8(0); va < rcVAs; va++ {
				if n.Lock[va] == 0 {
					n.Lock[va] = -1
				}
			}
			n.TPC = tDoneNOMEM
			steps = append(steps, Step{"t:enomem", n})
		}
	}
	if s.TPC == tDoneOK && (s.Lock[0] == 0 || s.Lock[1] == 0) {
		n := s
		for va := int8(0); va < 2; va++ {
			if n.Lock[va] == 0 {
				n.Lock[va] = -1
			}
		}
		steps = append(steps, Step{"t:commit", n})
	}
	return steps
}

func (m *ReclaimModel) rSteps(s rcState) []Step {
	var steps []Step
	if s.RHand >= rcVAs {
		return nil
	}
	va := int8(s.RHand)
	switch {
	case s.RVA < 0:
		if s.Map[va] < 0 || s.Swapped[va] {
			n := s
			n.RHand++
			steps = append(steps, Step{fmt.Sprintf("R:skip(%d)", va), n})
		} else if s.Lock[va] == -1 {
			n := s
			n.Lock[va] = 1
			n.RVA = va
			steps = append(steps, Step{fmt.Sprintf("R:lock(%d)", va), n})
		}
		// Locked by someone else: the hand waits (the sweep's trylock
		// models as blocking here; progress comes from the lock owner).
	case s.RPh == 0:
		va = s.RVA
		if s.A[va] {
			n := s
			n.A[va] = false
			n.Lock[va] = -1
			n.RVA = -1
			n.RHand++
			steps = append(steps, Step{fmt.Sprintf("R:clear(%d)", va), n})
		} else {
			n := s
			n.RPh = 1
			steps = append(steps, Step{fmt.Sprintf("R:submit(%d)", va), n})
		}
	case s.RPh == 1:
		va = s.RVA
		ok, fail := s, s
		ok.RPh = 2
		fail.RPh = 3
		steps = append(steps,
			Step{fmt.Sprintf("env:wb_ok(%d)", va), ok},
			Step{fmt.Sprintf("env:wb_fail(%d)", va), fail})
	case s.RPh == 3:
		va = s.RVA
		n := s
		n.Lock[va] = -1
		n.RVA = -1
		n.RPh = 0
		n.RHand++
		steps = append(steps, Step{fmt.Sprintf("R:resident(%d)", va), n})
	case s.RPh == 2:
		va = s.RVA
		if m.EagerFreeOnSwap {
			// Bug: free the frame on writeback completion, while the
			// page is still mapped.
			n := s
			n.RFrame = n.Map[va]
			n.monitorFree(n.RFrame)
			n.RPh = 5
			steps = append(steps, Step{fmt.Sprintf("R:freeq(%d)", n.RFrame), n})
			break
		}
		n := s
		n.RFrame = n.Map[va]
		n.Map[va] = -1
		n.Swapped[va] = true
		n.RPh = 4
		steps = append(steps, Step{fmt.Sprintf("R:unmap(%d)", va), n})
	case s.RPh == 4:
		va = s.RVA
		n := s
		n.monitorFree(n.RFrame)
		n.Lock[va] = -1
		n.RVA = -1
		n.RFrame = -1
		n.RPh = 0
		n.RHand++
		steps = append(steps, Step{fmt.Sprintf("R:freeq(%d)", s.RFrame), n})
	case s.RPh == 5:
		va = s.RVA
		n := s
		n.Map[va] = -1
		n.Swapped[va] = true
		n.Lock[va] = -1
		n.RVA = -1
		n.RFrame = -1
		n.RPh = 0
		n.RHand++
		steps = append(steps, Step{fmt.Sprintf("R:unmap(%d)", va), n})
	}
	return steps
}

func (m *ReclaimModel) dSteps(s rcState) []Step {
	var steps []Step
	switch s.DPC {
	case 0:
		n := s
		n.DInRCU = true
		n.DPC = 1
		steps = append(steps, Step{"d:rcu_begin", n})
	case 1:
		any := false
		for va := int8(0); va < rcVAs; va++ {
			if s.Map[va] < 0 {
				continue
			}
			any = true
			n := s
			n.DVA = va
			n.DFrame = n.Map[va]
			n.DGen = n.FGen[n.DFrame]
			n.DPC = 2
			steps = append(steps, Step{fmt.Sprintf("d:load(%d)", va), n})
		}
		if !any {
			n := s
			n.DPC = 3
			steps = append(steps, Step{"d:load_none", n})
		}
	case 2:
		n := s
		f := n.DFrame
		if n.Frame[f] == rfFree || n.FGen[f] != n.DGen {
			n.Bad = fmt.Sprintf("RCU reader dereferenced frame %d after it was recycled", f)
		} else if n.Map[n.DVA] == f {
			n.A[n.DVA] = true
		}
		n.DPC = 3
		steps = append(steps, Step{fmt.Sprintf("d:access(%d)", n.DVA), n})
	case 3:
		n := s
		n.DInRCU = false
		for f := range n.Snap {
			n.Snap[f] &^= 1
		}
		n.DPC = 4
		steps = append(steps, Step{"d:rcu_end", n})
	}
	return steps
}

func (m *ReclaimModel) Check(st State) error {
	s := st.(rcState)
	if s.Bad != "" {
		return fmt.Errorf("reclaim: %s", s.Bad)
	}
	var owner [rcFrames]int8
	for f := range owner {
		owner[f] = -1
	}
	for va := int8(0); va < rcVAs; va++ {
		f := s.Map[va]
		if f < 0 {
			continue
		}
		if s.Frame[f] != rfUsed {
			return fmt.Errorf("reclaim: frame %d freed while still mapped at va%d", f, va)
		}
		if owner[f] >= 0 {
			return fmt.Errorf("reclaim: frame %d mapped at both va%d and va%d", f, owner[f], va)
		}
		owner[f] = va
	}
	// A reader inside its section must never observe its frame recycled
	// out from under it (the grace-period guarantee).
	if s.DPC == 2 && s.DFrame >= 0 && s.FGen[s.DFrame] != s.DGen {
		return fmt.Errorf("reclaim: frame %d recycled under an in-section RCU reader", s.DFrame)
	}
	return nil
}

func (m *ReclaimModel) Done(st State) bool {
	s := st.(rcState)
	if s.TPC != tDoneOK && s.TPC != tDoneNOMEM {
		return false
	}
	if s.TPC == tDoneOK && (s.Lock[0] == 0 || s.Lock[1] == 0) {
		return false
	}
	if s.RHand < rcVAs || s.DPC != 4 {
		return false
	}
	for f := range s.Frame {
		if s.Frame[f] == rfMonitor {
			return false
		}
	}
	return true
}

func freeFrame(s *rcState) int8 {
	for f := int8(0); f < rcFrames; f++ {
		if s.Frame[f] == rfFree {
			return f
		}
	}
	return -1
}

func highBit(mask uint8) int8 {
	for f := int8(rcFrames - 1); f >= 0; f-- {
		if mask&(1<<uint(f)) != 0 {
			return f
		}
	}
	return -1
}
