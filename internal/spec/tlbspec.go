package spec

import "fmt"

// TLBModel is the small-scope staleness model of internal/tlb's
// lock-free design: seqlock-published cache slots, a per-(core,asid)
// epoch cell with a generation counter, a bounded invalidation ring
// whose evictions spill to a capped overflow list (trimmed by halves
// when full, forcing conservative misses), and the three shootdown
// variants (sync IPI, early-ack inbox, LATR tick-applied buffers).
//
// The checked contract is the one the real Lookup relies on:
//
//   - Staleness: a lookup hit never returns a translation whose
//     invalidation *completed* (the initiator observed the shootdown
//     acknowledged) before the hit's epoch validate. Translations
//     invalidated but not yet completed may still be served — that is
//     the TLB-coherence window every real MMU has.
//   - Ring-wrap no-stale-drop: a validate may only miss a still-live
//     entry when the history it needed was legally trimmed from the
//     overflow list; losing a record any other way (the pre-PR6
//     wrap bug) is a precision violation.
//
// Seeded bugs (each must be caught — see mutation_test.go):
// SkipValidate serves hits without replaying the ring; DropOverflow
// discards ring evictions instead of spilling; SkipInboxGate lets
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
	DropOverflow       bool
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
	tlbOvCap   = 2 // model-scale overflow cap (real: 512)
	tlbMaxRd   = 2
	tlbMaxPend = 8
)

// tlbRec is one invalidation record: the cell generation it was
// published at and the page it killed. Gen 0 means empty.
type tlbRec struct {
	Gen  uint8
	Page int8
}

// tlbCell is one per-(core,asid) epoch cell: a generation counter, the
// bounded ring indexed by gen, and the overflow spill list.
type tlbCell struct {
	Gen    uint8
	Ring   [tlbRingLen]tlbRec
	Ov     [tlbOvCap]int8
	OvBase uint8 // generation of Ov[0]
	OvLen  uint8
	Trim   bool // a trim has discarded history
}

// bump publishes one invalidation record, spilling the evicted ring
// slot to the overflow list (unless the DropOverflow bug is seeded).
func (c *tlbCell) bump(page int8, drop bool) {
	g := c.Gen + 1
	slot := &c.Ring[g%tlbRingLen]
	if slot.Gen != 0 && !drop {
		c.spill(slot.Page)
	}
	slot.Gen, slot.Page = g, page
	c.Gen = g
}

func (c *tlbCell) spill(page int8) {
	if c.OvLen == 0 {
		// The overflow list always holds the records immediately below
		// the ring window; its base is the oldest spilled generation.
		c.OvBase = c.Gen + 1 - uint8(tlbRingLen)
	}
	if c.OvLen == tlbOvCap {
		const half = tlbOvCap / 2
		copy(c.Ov[:], c.Ov[half:c.OvLen])
		c.OvLen -= half
		c.OvBase += half
		c.Trim = true
	}
	c.Ov[c.OvLen] = page
	c.OvLen++
}

// validate replays the records in (g, Gen]. It returns whether the
// entry filled at generation g is still live, and whether a needed
// record was unavailable without a legal trim (the precision bug).
func (c *tlbCell) validate(page int8, g uint8) (live, lost bool) {
	for gg := g + 1; gg != 0 && gg <= c.Gen; gg++ {
		var rp int8
		found := false
		if r := c.Ring[gg%tlbRingLen]; r.Gen == gg {
			rp, found = r.Page, true
		} else if c.OvLen > 0 && gg >= c.OvBase && gg < c.OvBase+c.OvLen {
			rp, found = c.Ov[gg-c.OvBase], true
		}
		if !found {
			if c.Trim && gg < c.OvBase {
				return false, false // trimmed history: conservative miss
			}
			return false, true // record lost with no trim to blame
		}
		if rp == page || rp == -1 {
			return false, false
		}
	}
	return true, false
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
			n.Rd[i].Cell.bump(p, m.DropOverflow)
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
			n.Rd[i].Cell.bump(p, m.DropOverflow)
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
				n.Rd[i].Cell.bump(n.Rd[i].Inbox[j], m.DropOverflow)
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
			live, lost := cell.validate(p, e.Gen)
			switch {
			case lost && e.Ver == n.Ver[p]:
				n.Bad = fmt.Sprintf("ring wrap dropped a live entry (reader %d page %d)", i, p)
				label = fmt.Sprintf("r%d:drop_live(%d)", i, p)
			case !live:
				n.Rd[i].Cache[p].Valid = false
				label = fmt.Sprintf("r%d:inv_miss(%d)", i, p)
			default:
				n.Rd[i].Cache[p].Gen = cell.Gen
				label = fmt.Sprintf("r%d:hit(%d)", i, p)
			}
		}
		// Staleness check on any served hit: a completed invalidation
		// must never be visible through the cache.
		if n.Bad == "" && e.Valid && n.Rd[i].Cache[p].Valid && n.Compl[p] > e.Ver {
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
