package spec

import "fmt"

// MigrateModel checks break-before-make frame migration — one locking
// transaction that breaks, waits one RCU grace period under its lock,
// copies and remaps — at byte-level precision on a single page with one
// concurrent writer and one lockless reader:
//
//	lock, validate (writable, not COW), protect to RO+COW, shoot down,
//	grace: RCU barrier drains every in-flight lockless access,
//	copy src→dst, remap to dst, shoot down, free src after a second
//	grace period, unlock
//
// The writer models the real store path: use a cached writable
// translation if one is live, otherwise walk, and on an RO+COW page take
// the fault lock — outside any read section, as cpusim.Machine.Access
// runs its fault — and upgrade in place. Stores and the migration copy
// are two-step (start/end) so the checker sees real data races as
// overlapping intervals. The environment may fork the space before the
// migrator locks while a store is still to come (the child gone, the page
// is left RO+COW and exclusive): the check then refuses the page and the
// writer's fault heals it, so both outcomes are reachable.
//
// Checked guarantees: no store or copy interval ever overlaps on the
// source frame (no torn bytes), the Armv8-A break-before-make rule —
// never install the new mapping while any core still holds a live
// writable translation of the old one (encoded as a guard on m:remap),
// a non-writable PTE is always COW (healable), the source frame is never
// freed while mapped or mid-access, every quiescent terminal state is
// coherent (the mapped frame holds the last value written), and no
// interleaving deadlocks.
//
// Seeded bugs: OneTxn copies and remaps with no protect and no barrier
// (copy before break); SkipBarrier copies without draining in-flight
// lockless accesses; SkipBBMInvalidate skips the break's shootdown;
// FreeBeforeShootdown frees the source before the remap's shootdown;
// LockInReadSection has the writer wait for the fault lock inside its
// read section (Figure 6's order), which deadlocks against a barrier
// taken under that lock.
type MigrateModel struct {
	// Writes is the writer's script length (stores of 1..Writes).
	Writes uint8

	OneTxn              bool
	SkipBarrier         bool
	SkipBBMInvalidate   bool
	FreeBeforeShootdown bool
	LockInReadSection   bool
}

// Migrator program counter.
const (
	mLock uint8 = iota
	mValidate
	mProtect
	mShoot1
	mBarrier
	mCopyStart
	mCopyEnd
	mRemap
	mShoot2
	mFreeSrc
	mDone
	mAborted
)

// Writer program counter.
const (
	wIdle uint8 = iota
	wStore
	wLockWait
	wUpgrade
	wUnlock
	wDone
)

// mgTrans is a cached translation (a TLB entry) for the single page.
type mgTrans struct {
	Valid bool
	Frame int8
	W     bool
}

type mgState struct {
	// The single PTE: mapped frame, writable, copy-on-write.
	PFrame int8
	PW     bool
	PCOW   bool
	// Phys is the byte each frame holds; L is the last value a store
	// committed (the linearized contents).
	Phys  [2]uint8
	L     uint8
	Freed [2]bool
	Lock  int8 // -1 free, 0 migrator, 1 writer(fault)

	Cache [2]mgTrans // cached translations: [0] writer core, [1] reader core

	MPC uint8
	// Copy interval: active + the value read at copy_start.
	CopyActive bool
	CopyVal    uint8

	WPC       uint8
	WCount    uint8
	WInflight int8 // frame a store interval is open on, -1 none
	WInRCU    bool // the writer waits for the fault lock in a read section

	RPC       uint8 // 0 walk, 1 read, 2 done
	RInflight int8

	Forked bool

	Bad string
}

func (s mgState) Key() string { return fmt.Sprint(s) }

func (m *MigrateModel) Init() State {
	return mgState{
		PFrame: 0, PW: true,
		Lock: -1,
		// The writer starts with a hot writable translation of the
		// source — the dangerous pre-existing state shootdowns exist
		// to kill.
		Cache:     [2]mgTrans{{Valid: true, Frame: 0, W: true}, {}},
		WInflight: -1,
		RInflight: -1,
	}
}

func (m *MigrateModel) Next(st State) []Step {
	s := st.(mgState)
	if s.Bad != "" {
		return nil
	}
	var steps []Step
	steps = append(steps, m.migratorSteps(s)...)
	steps = append(steps, m.writerSteps(s)...)
	steps = append(steps, m.readerSteps(s)...)
	if s.MPC == mLock && s.Lock == -1 && !s.Forked && s.WPC == wIdle && s.WCount < m.Writes {
		// A fork whose child has exited: the page is write-protected and
		// shot down, still mapped exclusively.
		n := s
		n.PW, n.PCOW, n.Forked = false, true, true
		n.Cache = [2]mgTrans{}
		steps = append(steps, Step{"e:fork", n})
	}
	return steps
}

func (m *MigrateModel) migratorSteps(s mgState) []Step {
	var steps []Step
	one := func(label string, n mgState) { steps = append(steps, Step{label, n}) }
	switch s.MPC {
	case mLock:
		if s.Lock == -1 {
			n := s
			n.Lock = 0
			n.MPC = mValidate
			one("m:lock", n)
		}
	case mValidate:
		n := s
		if n.PFrame == 0 && n.PW && !n.PCOW {
			n.MPC = mProtect
			if m.OneTxn {
				n.MPC = mCopyStart
			}
			one("m:validate", n)
		} else {
			n.Lock = -1
			n.MPC = mAborted
			one("m:abort", n)
		}
	case mProtect:
		n := s
		n.PW = false
		n.PCOW = true
		n.MPC = mShoot1
		one("m:protect", n)
	case mShoot1:
		n := s
		if !m.SkipBBMInvalidate {
			n.Cache[0] = mgTrans{}
			n.Cache[1] = mgTrans{}
		}
		n.MPC = mBarrier
		one("m:shoot1", n)
	case mBarrier:
		// The RCU barrier, under the lock, returns only once every
		// in-flight lockless access has drained and no read section is
		// open.
		if m.SkipBarrier || (s.WInflight == -1 && s.RInflight == -1 && !s.WInRCU) {
			n := s
			n.MPC = mCopyStart
			one("m:barrier", n)
		}
	case mCopyStart:
		n := s
		if n.WInflight == 0 {
			n.Bad = "copy raced an in-flight store on the source frame"
		}
		n.CopyActive = true
		n.CopyVal = n.Phys[0]
		n.MPC = mCopyEnd
		one("m:copy_start", n)
	case mCopyEnd:
		n := s
		if n.WInflight == 0 {
			n.Bad = "copy raced an in-flight store on the source frame"
		}
		n.Phys[1] = n.CopyVal
		n.CopyActive = false
		n.MPC = mRemap
		one("m:copy_end", n)
	case mRemap:
		n := s
		// Armv8-A break-before-make: installing the new translation
		// while another core still holds a live writable translation of
		// the old frame is the forbidden overlap.
		for c := 0; c < 2; c++ {
			if t := n.Cache[c]; t.Valid && t.W && t.Frame == 0 {
				n.Bad = fmt.Sprintf("remap while core %d holds a live writable translation of the source", c)
			}
		}
		n.PFrame = 1
		n.PW = true
		n.PCOW = false
		if m.FreeBeforeShootdown {
			n.MPC = mFreeSrc
		} else {
			n.MPC = mShoot2
		}
		one("m:remap", n)
	case mShoot2:
		n := s
		n.Cache[0] = mgTrans{}
		n.Cache[1] = mgTrans{}
		if m.FreeBeforeShootdown {
			n.Lock = -1
			n.MPC = mDone
		} else {
			n.MPC = mFreeSrc
		}
		one("m:shoot2", n)
	case mFreeSrc:
		// The second grace period: the source may only be freed once no
		// access interval is open on it.
		if s.WInflight != 0 && s.RInflight != 0 {
			n := s
			n.Freed[0] = true
			if m.FreeBeforeShootdown {
				n.MPC = mShoot2
			} else {
				n.Lock = -1
				n.MPC = mDone
			}
			one("m:free_src", n)
		}
	}
	return steps
}

func (m *MigrateModel) writerSteps(s mgState) []Step {
	var steps []Step
	one := func(label string, n mgState) { steps = append(steps, Step{label, n}) }
	switch s.WPC {
	case wIdle:
		if s.WCount >= m.Writes {
			break
		}
		if t := s.Cache[0]; t.Valid && t.W {
			n := s
			n.WInflight = t.Frame
			n.WPC = wStore
			one("w:store_start", n)
			break
		}
		// Lockless walk.
		n := s
		if s.PW {
			n.Cache[0] = mgTrans{Valid: true, Frame: n.PFrame, W: true}
			one("w:walk_rw", n)
		} else {
			n.WPC = wLockWait
			n.WInRCU = m.LockInReadSection
			one("w:walk_cow", n)
		}
	case wStore:
		n := s
		f := n.WInflight
		if n.Freed[f] {
			n.Bad = fmt.Sprintf("store committed to freed frame %d", f)
		}
		if n.CopyActive && f == 0 {
			n.Bad = "store raced the migration copy on the source frame"
		}
		n.Phys[f] = n.WCount + 1
		n.L = n.WCount + 1
		n.WCount++
		n.WInflight = -1
		if n.WCount >= m.Writes {
			n.WPC = wDone
		} else {
			n.WPC = wIdle
		}
		one("w:store_end", n)
	case wLockWait:
		if s.Lock == -1 {
			n := s
			n.Lock = 1
			n.WInRCU = false
			n.WPC = wUpgrade
			one("w:fault_lock", n)
		}
	case wUpgrade:
		// The COW fault: the page is exclusive, so upgrade in place. If a
		// completed migration got here first the PTE is already writable
		// again.
		n := s
		if !n.PW {
			n.PW = true
			n.PCOW = false
		}
		n.Cache[0] = mgTrans{Valid: true, Frame: n.PFrame, W: true}
		n.WPC = wUnlock
		one("w:upgrade", n)
	case wUnlock:
		n := s
		n.Lock = -1
		n.WPC = wIdle
		one("w:fault_unlock", n)
	}
	return steps
}

func (m *MigrateModel) readerSteps(s mgState) []Step {
	var steps []Step
	one := func(label string, n mgState) { steps = append(steps, Step{label, n}) }
	switch s.RPC {
	case 0:
		n := s
		n.Cache[1] = mgTrans{Valid: true, Frame: n.PFrame, W: false}
		n.RPC = 1
		one("r:walk", n)
	case 1:
		if !s.Cache[1].Valid {
			// Shot down between walk and read: walk again.
			n := s
			n.RPC = 0
			one("r:rewalk", n)
			break
		}
		n := s
		n.RInflight = n.Cache[1].Frame
		n.RPC = 2
		one("r:read_start", n)
	case 2:
		n := s
		if n.Freed[n.RInflight] {
			n.Bad = fmt.Sprintf("read committed on freed frame %d", n.RInflight)
		}
		n.RInflight = -1
		n.RPC = 3
		one("r:read_end", n)
	}
	return steps
}

func (m *MigrateModel) Check(st State) error {
	s := st.(mgState)
	if s.Bad != "" {
		return fmt.Errorf("bbm: %s", s.Bad)
	}
	if s.PFrame >= 0 && s.Freed[s.PFrame] {
		return fmt.Errorf("bbm: mapped frame %d is freed", s.PFrame)
	}
	// Self-healing invariant: a non-writable PTE must always be COW, or
	// the fault path has no way to recover it.
	if !s.PW && !s.PCOW {
		return fmt.Errorf("bbm: page left read-only without COW (unhealable)")
	}
	// Coherence at quiescent terminal states: the mapped frame holds
	// the last linearized store.
	if (s.MPC == mDone || s.MPC == mAborted) && s.WPC == wDone && s.RPC == 3 &&
		s.WInflight == -1 && !s.CopyActive {
		if s.Phys[s.PFrame] != s.L {
			return fmt.Errorf("bbm: torn migration: mapped frame holds %d, last store was %d", s.Phys[s.PFrame], s.L)
		}
		if !s.PW {
			return fmt.Errorf("bbm: terminal state left the page read-only")
		}
		if s.MPC == mDone && (s.PFrame != 1 || !s.Freed[0]) {
			return fmt.Errorf("bbm: completed migration did not move the page")
		}
		if s.MPC == mAborted && (s.Freed[0] || s.Freed[1]) {
			return fmt.Errorf("bbm: aborted migration freed a frame")
		}
	}
	return nil
}

func (m *MigrateModel) Done(st State) bool {
	s := st.(mgState)
	return (s.MPC == mDone || s.MPC == mAborted) && s.WPC == wDone && s.RPC == 3
}
