package spec

import "fmt"

// TLBModel is the small-scope staleness model of internal/tlb's
// lock-free design: seqlock-published cache slots, a per-(core,asid)
// epoch cell with a generation counter and a bounded invalidation ring
// that is the cell's only history (an entry whose history has left the
// ring misses conservatively), and the three shootdown variants (sync
// IPI, early-ack inbox, LATR tick-applied buffers).
//
// The checked contract is the one the real Lookup relies on: a lookup
// hit never returns a translation whose invalidation *completed* (the
// initiator observed the shootdown acknowledged) before the hit's epoch
// validate. Translations invalidated but not yet completed may still be
// served — that is the TLB-coherence window every real MMU has. A miss
// is always legal.
//
// Seeded bugs (each must be caught — see mutation_test.go):
// SkipValidate serves hits without replaying the ring; TrustLostHistory
// replays only the records still in the ring when the entry's history
// has left it, instead of missing; SkipInboxGate lets
// early-ack lookups run without draining the pending-invalidation
// inbox; LATREarlyComplete acknowledges a LATR shootdown before the
// remote tick applies it; QuiesceMissesSweep lets a quiesce return
// while a sweeper that already emptied the LATR buffer is still
// applying it (the buffer count was zeroed when taken, not when
// applied); StampAtInsert stamps a filled entry with the cell
// generation read when it is inserted rather than before the walk that
// found the translation, so an invalidation landing between the two is
// never replayed against it.
type TLBModel struct {
	Mode TLBMode
	// Unmaps is the mutator script: page indices to unmap+shoot, in
	// order. The same page may repeat (remap between unmaps is implied
	// by version numbers).
	Unmaps []int8
	// Readers holds one op script per reader core.
	Readers [][]TLBOp
	// Quiesces is how many times the environment may quiesce (LATR
	// only): sweep the buffer itself, wait out a sweep under way, and
	// then rely on every invalidation queued so far being complete.
	Quiesces uint8

	// Seeded bugs.
	SkipValidate       bool
	TrustLostHistory   bool
	SkipInboxGate      bool
	LATREarlyComplete  bool
	QuiesceMissesSweep bool
	StampAtInsert      bool
}

// TLBMode selects the shootdown variant being modelled.
type TLBMode uint8

const (
	TLBSync TLBMode = iota
	TLBEarlyAck
	TLBLATR
)

func (m TLBMode) String() string {
	switch m {
	case TLBSync:
		return "sync"
	case TLBEarlyAck:
		return "earlyack"
	case TLBLATR:
		return "latr"
	}
	return "?"
}

// TLBOp is one reader op: fill a translation for Page into the local
// cache — two steps, the walk that reads the page's current version and
// the insert that publishes it — or look it up (validating through the
// epoch cell).
type TLBOp struct {
	Fill bool
	Page int8
}

const (
	tlbPages   = 2
	tlbRingLen = 2 // model-scale ring (real: 16)
	tlbMaxRd   = 2
	tlbMaxPend = 8
)

// tlbCell is one per-(core,asid) epoch cell: a generation counter and
// the bounded ring, indexed by generation, of the pages the last
// tlbRingLen invalidations killed.
type tlbCell struct {
	Gen  uint8
	Ring [tlbRingLen]int8
}

// bump publishes one invalidation record over the ring's oldest slot.
func (c *tlbCell) bump(page int8) {
	c.Gen++
	c.Ring[c.Gen%tlbRingLen] = page
}

// validate replays the records in (g, Gen] and returns whether the
// entry of page filled at generation g is still live. A record that has
// left the ring kills the entry; the TrustLostHistory bug skips it instead.
func (c *tlbCell) validate(page int8, g uint8, trust bool) bool {
	if c.Gen-g > tlbRingLen {
		if !trust {
			return false
		}
		g = c.Gen - tlbRingLen
	}
	for gg := g + 1; gg <= c.Gen; gg++ {
		if c.Ring[gg%tlbRingLen] == page {
			return false
		}
	}
	return true
}

// tlbEntry is one cached translation: the page version it was filled
// from and the cell generation current at fill time.
type tlbEntry struct {
	Valid bool
	Ver   uint8
	Gen   uint8
}

// tlbReader is one reader core's local state.
type tlbReader struct {
	Op    uint8
	Cache [tlbPages]tlbEntry
	Cell  tlbCell
	// Walk holds a fill between its two steps: the version the walk
	// read and the cell generation sampled just before it.
	Walk tlbEntry
	// Early-ack inbox: pages whose invalidation was acked before the
	// local cell was bumped; drained at the next lookup.
	Inbox  [tlbMaxPend]int8
	InboxN uint8
}

// tlbState is the full model state.
type tlbState struct {
	// Ver is the current version of each page's translation; Compl is
	// the highest version whose invalidation has completed (the
	// initiator returned from the shootdown).
	Ver   [tlbPages]uint8
	Compl [tlbPages]uint8
	MOp   uint8 // mutator script index
	MPh   uint8 // 0 = unmap pending, 1..R = delivering to reader MPh-1
	Rd    [tlbMaxRd]tlbReader
	// LATR: buffered (page, version) invalidations applied at the next
	// remote tick. A sweeper first takes the buffer (Latr → Sweep), then
	// applies it; QDone counts completed quiesces.
	Latr     [tlbMaxPend]int8
	LatrVer  [tlbMaxPend]uint8
	LatrN    uint8
	Sweep    [tlbMaxPend]int8
	SweepVer [tlbMaxPend]uint8
	SweepN   uint8
	QDone    uint8
	Bad      string
}

// applyLATR bumps every reader's cell for each buffered invalidation.
func (m *TLBModel) applyLATR(n *tlbState, pages []int8) {
	for i := 0; i < m.nreaders(); i++ {
		for _, p := range pages {
			n.Rd[i].Cell.bump(p)
		}
	}
}

// completeLATR records the buffered invalidations as completed.
func completeLATR(n *tlbState, pages []int8, vers []uint8) {
	for j, p := range pages {
		if vers[j] > n.Compl[p] {
			n.Compl[p] = vers[j]
		}
	}
}

func (s tlbState) Key() string { return fmt.Sprint(s) }

func (m *TLBModel) Init() State {
	return tlbState{}
}

func (m *TLBModel) nreaders() int { return len(m.Readers) }

func (m *TLBModel) Next(st State) []Step {
	s := st.(tlbState)
	if s.Bad != "" {
		return nil // violations are terminal
	}
	var steps []Step

	// Mutator: unmap then deliver the shootdown per the mode.
	if int(s.MOp) < len(m.Unmaps) {
		p := m.Unmaps[s.MOp]
		switch {
		case s.MPh == 0:
			n := s
			n.Ver[p]++
			n.MPh = 1
			steps = append(steps, Step{fmt.Sprintf("m:unmap(%d)", p), n})
		case m.Mode == TLBSync:
			// Deliver to reader MPh-1; the last delivery completes the op.
			i := int(s.MPh) - 1
			n := s
			n.Rd[i].Cell.bump(p)
			if i == m.nreaders()-1 {
				n.Compl[p] = n.Ver[p]
				n.MPh, n.MOp = 0, n.MOp+1
			} else {
				n.MPh++
			}
			steps = append(steps, Step{fmt.Sprintf("m:deliver(r%d,%d)", i, p), n})
		case m.Mode == TLBEarlyAck:
			// Post to reader MPh-1's inbox; acked immediately, so the
			// last post completes the op even though no cell was bumped.
			i := int(s.MPh) - 1
			n := s
			n.Rd[i].Inbox[n.Rd[i].InboxN] = p
			n.Rd[i].InboxN++
			if i == m.nreaders()-1 {
				n.Compl[p] = n.Ver[p]
				n.MPh, n.MOp = 0, n.MOp+1
			} else {
				n.MPh++
			}
			steps = append(steps, Step{fmt.Sprintf("m:post(r%d,%d)", i, p), n})
		default: // TLBLATR
			n := s
			n.Latr[n.LatrN] = p
			n.LatrVer[n.LatrN] = n.Ver[p]
			n.LatrN++
			if m.LATREarlyComplete {
				n.Compl[p] = n.Ver[p]
			}
			n.MPh, n.MOp = 0, n.MOp+1
			steps = append(steps, Step{fmt.Sprintf("m:latr_queue(%d)", p), n})
		}
	}

	// LATR remote tick, in the two steps the real sweeper takes: empty
	// the buffer, then apply what it held to every reader's cell and
	// complete it. One sweeper at a time owns the buffer.
	if m.Mode == TLBLATR && s.LatrN > 0 && s.SweepN == 0 {
		n := s
		n.Sweep, n.SweepVer, n.SweepN = s.Latr, s.LatrVer, s.LatrN
		n.Latr, n.LatrVer, n.LatrN = [tlbMaxPend]int8{}, [tlbMaxPend]uint8{}, 0
		steps = append(steps, Step{"sw:take", n})
	}
	if s.SweepN > 0 {
		n := s
		m.applyLATR(&n, s.Sweep[:s.SweepN])
		completeLATR(&n, s.Sweep[:s.SweepN], s.SweepVer[:s.SweepN])
		n.Sweep, n.SweepVer, n.SweepN = [tlbMaxPend]int8{}, [tlbMaxPend]uint8{}, 0
		steps = append(steps, Step{"sw:apply", n})
	}
	// Quiesce: sweep whatever is buffered, and return only once no sweep
	// is under way — so everything queued so far counts as complete. The
	// seeded bug returns past a taken-but-unapplied sweep.
	if m.Mode == TLBLATR && s.QDone < m.Quiesces && (s.SweepN == 0 || m.QuiesceMissesSweep) {
		n := s
		m.applyLATR(&n, s.Latr[:s.LatrN])
		completeLATR(&n, s.Latr[:s.LatrN], s.LatrVer[:s.LatrN])
		completeLATR(&n, s.Sweep[:s.SweepN], s.SweepVer[:s.SweepN])
		n.Latr, n.LatrVer, n.LatrN = [tlbMaxPend]int8{}, [tlbMaxPend]uint8{}, 0
		n.QDone++
		steps = append(steps, Step{"q:quiesce", n})
	}

	// Readers.
	for i := 0; i < m.nreaders(); i++ {
		r := s.Rd[i]
		if int(r.Op) >= len(m.Readers[i]) {
			continue
		}
		op := m.Readers[i][r.Op]
		p := op.Page
		if op.Fill {
			n := s
			if !r.Walk.Valid {
				n.Rd[i].Walk = tlbEntry{true, n.Ver[p], r.Cell.Gen}
				steps = append(steps, Step{fmt.Sprintf("r%d:walk(%d)", i, p), n})
				continue
			}
			e := r.Walk
			if m.StampAtInsert {
				e.Gen = r.Cell.Gen
			}
			n.Rd[i].Cache[p] = e
			n.Rd[i].Walk = tlbEntry{}
			n.Rd[i].Op++
			steps = append(steps, Step{fmt.Sprintf("r%d:fill(%d)", i, p), n})
			continue
		}
		// Lookup. Early-ack drains the inbox first (unless bugged) —
		// the real Lookup's inboxN gate.
		n := s
		if m.Mode == TLBEarlyAck && !m.SkipInboxGate {
			for j := uint8(0); j < n.Rd[i].InboxN; j++ {
				n.Rd[i].Cell.bump(n.Rd[i].Inbox[j])
			}
			n.Rd[i].InboxN = 0
		}
		e := n.Rd[i].Cache[p]
		cell := &n.Rd[i].Cell
		label := ""
		switch {
		case !e.Valid:
			label = fmt.Sprintf("r%d:miss(%d)", i, p)
		case m.SkipValidate || e.Gen == cell.Gen:
			// Fast path: nothing published since the fill (or the
			// seeded bug skips the replay entirely). The hit is
			// checked for staleness below.
			label = fmt.Sprintf("r%d:hit(%d)", i, p)
		default:
			if cell.validate(p, e.Gen, m.TrustLostHistory) {
				n.Rd[i].Cache[p].Gen = cell.Gen
				label = fmt.Sprintf("r%d:hit(%d)", i, p)
			} else {
				n.Rd[i].Cache[p].Valid = false
				label = fmt.Sprintf("r%d:inv_miss(%d)", i, p)
			}
		}
		// Staleness check on any served hit: a completed invalidation
		// must never be visible through the cache.
		if e.Valid && n.Rd[i].Cache[p].Valid && n.Compl[p] > e.Ver {
			n.Bad = fmt.Sprintf("stale hit: reader %d page %d v%d, invalidation of v<=%d completed", i, p, e.Ver, n.Compl[p])
			label = fmt.Sprintf("r%d:stale_hit(%d)", i, p)
		}
		n.Rd[i].Op++
		steps = append(steps, Step{label, n})
	}
	return steps
}

func (m *TLBModel) Check(st State) error {
	s := st.(tlbState)
	if s.Bad != "" {
		return fmt.Errorf("tlb: %s", s.Bad)
	}
	return nil
}

func (m *TLBModel) Done(st State) bool {
	s := st.(tlbState)
	if int(s.MOp) < len(m.Unmaps) || s.LatrN > 0 || s.SweepN > 0 {
		return false
	}
	for i := 0; i < m.nreaders(); i++ {
		if int(s.Rd[i].Op) < len(m.Readers[i]) {
			return false
		}
	}
	return true
}
