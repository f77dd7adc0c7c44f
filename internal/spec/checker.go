// Package spec is the executable counterpart of CortenMM's Verus proofs
// (§5): the Atomic Spec (atomic.go), one model per locking protocol
// (rwspec.go, advspec.go), and an exhaustive model checker that explores
// every interleaving of them on a small page-table topology. Within its
// bounds it machine-checks the paper's two key properties — P1 (mutual
// exclusion of overlapping transactions, Figure 11), stated once as the
// Atomic Spec's lock precondition and checked on every transition of a
// model with an Interp, and the safety of the unmap paths (Figure 7: no
// use-after-free, no lost update) — and, run with a seeded bug (skipped
// read locks or DFS, missing stale check, missing RCU), it finds the
// corresponding violation, demonstrating that the properties are not
// vacuous.
//
// Beyond the locking protocols, the package re-verifies the envelope of
// the subsystems grown since: the lock-free TLB's staleness contract
// (tlbspec.go), reclaim/transaction interference in rely-guarantee style
// (reclaimspec.go), and break-before-make migration
// (migratespec.go). Each model carries seeded bugs the checker must
// catch, and replay.go converts a counterexample trace into a
// deterministic schedule against the real internal/tlb and internal/core
// code. Every scenario, clean or seeded, is one row of the table in
// envelope.go, and Check is the only explorer.
package spec

import (
	"fmt"
	"sort"
)

// State is one global state of a modelled machine. Key must uniquely
// encode the state.
type State interface {
	Key() string
}

// Step is a labelled transition to a successor state.
type Step struct {
	Label string
	To    State
}

// Machine is a model the checker can explore.
type Machine interface {
	// Init returns the initial state.
	Init() State
	// Next enumerates every enabled transition of s.
	Next(s State) []Step
	// Check reports an invariant violation in s (nil if s is fine).
	Check(s State) error
	// Done reports whether s is a legitimate terminal state; states
	// with no successors that are not Done count as deadlocks.
	Done(s State) bool
}

// Result summarizes one model-checking run (the Table-4 analog: instead
// of proof lines, explored states and checked transitions).
type Result struct {
	States      int
	Transitions int
	// Violation is the first invariant violation found (nil if none),
	// with Trace holding the labels leading to it.
	Violation error
	Trace     []string
	// Deadlock holds the trace to a stuck non-terminal state, if any.
	Deadlock []string
}

// Check exhaustively explores m's state space (bounded by maxStates)
// and reports the first violation — of a state invariant or, for a model
// with an Interp, of the Atomic Spec refinement by a transition — or
// deadlock, if any.
func Check(m Machine, maxStates int) Result {
	in, _ := m.(Interp)
	type visit struct {
		state State
		key   string
	}
	init := m.Init()
	seen := map[string]bool{init.Key(): true}
	// parent edges for counterexample reconstruction
	from := map[string]string{}
	label := map[string]string{}
	queue := []visit{{init, init.Key()}}
	res := Result{States: 1}

	trace := func(key string) []string {
		var out []string
		for key != init.Key() {
			out = append(out, label[key])
			key = from[key]
		}
		// reverse
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}

	if err := m.Check(init); err != nil {
		res.Violation = err
		return res
	}
	if in != nil && in.Interp(init).Hold != nullAtomic(nil).Hold {
		res.Violation = fmt.Errorf("spec: refinement broken: a core holds a page initially")
		return res
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		steps := m.Next(cur.state)
		if len(steps) == 0 && !m.Done(cur.state) {
			res.Deadlock = append(trace(cur.key), "<stuck>")
			res.States = len(seen)
			return res
		}
		var held AtomicState
		if in != nil {
			held = in.Interp(cur.state)
		}
		for _, st := range steps {
			res.Transitions++
			if in != nil {
				if err := refineStep(held, in.Interp(st.To)); err != nil {
					res.Violation, res.Trace, res.States = err, append(trace(cur.key), st.Label), len(seen)
					return res
				}
			}
			k := st.To.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			from[k] = cur.key
			label[k] = st.Label
			if err := m.Check(st.To); err != nil {
				res.Violation = err
				res.Trace = trace(k)
				res.States = len(seen)
				return res
			}
			if len(seen) > maxStates {
				res.Violation = fmt.Errorf("spec: state space exceeds bound %d", maxStates)
				res.States = len(seen)
				return res
			}
			queue = append(queue, visit{st.To, k})
		}
	}
	res.States = len(seen)
	return res
}

// Topology is a small, fully populated page-table tree: page 0 is the
// root; pages are numbered level by level.
type Topology struct {
	Levels int
	Fanout int
	Parent []int
	Kids   [][]int
	Depth  []int
	N      int
}

// NewTopology builds a complete tree of the given depth and fanout.
func NewTopology(levels, fanout int) *Topology {
	t := &Topology{Levels: levels, Fanout: fanout}
	t.Parent = []int{-1}
	t.Depth = []int{0}
	t.Kids = [][]int{nil}
	frontier := []int{0}
	for d := 1; d < levels; d++ {
		var next []int
		for _, p := range frontier {
			for f := 0; f < fanout; f++ {
				id := len(t.Parent)
				t.Parent = append(t.Parent, p)
				t.Depth = append(t.Depth, d)
				t.Kids = append(t.Kids, nil)
				t.Kids[p] = append(t.Kids[p], id)
				next = append(next, id)
			}
		}
		frontier = next
	}
	t.N = len(t.Parent)
	return t
}

// IsAncestor reports whether a is a strict ancestor of b.
func (t *Topology) IsAncestor(a, b int) bool {
	for p := t.Parent[b]; p >= 0; p = t.Parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

// Overlapping reports whether locking a and b could conflict: equal or
// in an ancestor-descendant relationship.
func (t *Topology) Overlapping(a, b int) bool {
	return a == b || t.IsAncestor(a, b) || t.IsAncestor(b, a)
}

// PathTo returns the root→page path, inclusive.
func (t *Topology) PathTo(page int) []int {
	var path []int
	for p := page; p >= 0; p = t.Parent[p] {
		path = append(path, p)
	}
	sort.Ints(path) // IDs increase with depth along a path
	return path
}

// Subtree lists page and all its descendants in preorder.
func (t *Topology) Subtree(page int) []int {
	out := []int{page}
	for _, k := range t.Kids[page] {
		out = append(out, t.Subtree(k)...)
	}
	return out
}
