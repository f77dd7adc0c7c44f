package spec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ModelCase is one named, ready-to-check model scenario. The table below
// is the only place a scenario is written: the spec tests, the
// counterexample replays in internal/tlb and internal/core, and
// cortenbench -fig spec (the Table-4 analog) all read it.
type ModelCase struct {
	// Family is the protocol under check: "rw", "refine" (rw on the
	// deeper tree) and "stepwise" (Figure 5; "stepwise" releases one
	// lock per step), "rwdyn" (rw frees PT pages without RCU, §4.1),
	// "adv" and "subtree" (Figures 6 and 7), "tlb", "reclaim", "bbm".
	// The first six families' rows, of RWModel and AdvModel, check P1
	// as the Atomic Spec refinement (§5.1).
	Family string
	Name   string
	Bug    string // "" for clean cases
	// Want names the violation a seeded bug must produce: its message
	// contains one of the "|"-separated alternatives.
	Want  string
	Model Machine
}

// MaxStates bounds the exploration of every case; the largest explores
// a few thousand states.
const MaxStates = 100_000

// Verify checks the case and judges the result: a clean case must
// report neither violation nor deadlock; a seeded bug must be caught
// with a counterexample trace, as the violation Want names — a deadlock
// counts as the violation "deadlock", its trace ending at the stuck
// state.
func (c ModelCase) Verify() (Result, error) {
	res := Check(c.Model, MaxStates)
	if c.Bug != "" && res.Violation == nil && res.Deadlock != nil {
		res.Violation, res.Trace = errors.New("spec: deadlock"), res.Deadlock
	}
	switch {
	case c.Bug == "" && res.Violation != nil:
		return res, fmt.Errorf("%v\ntrace: %s", res.Violation, strings.Join(res.Trace, " "))
	case c.Bug == "" && res.Deadlock != nil:
		return res, fmt.Errorf("deadlock: %s", strings.Join(res.Deadlock, " "))
	case c.Bug == "":
		return res, nil
	case res.Violation == nil:
		return res, fmt.Errorf("seeded bug %q not caught (explored %d states)", c.Bug, res.States)
	case len(res.Trace) == 0:
		return res, fmt.Errorf("seeded bug %q caught without a counterexample trace", c.Bug)
	}
	for _, want := range strings.Split(c.Want, "|") {
		if strings.Contains(res.Violation.Error(), want) {
			return res, nil
		}
	}
	return res, fmt.Errorf("seeded bug %q caught as %q, want %q", c.Bug, res.Violation, c.Want)
}

// EnvelopeCases returns the clean rows of the table: every scenario the
// checker must explore to completion with no violation and no deadlock.
func EnvelopeCases() []ModelCase {
	return slices.DeleteFunc(cases(), func(c ModelCase) bool { return c.Bug != "" })
}

// MutationCases returns the seeded-bug rows: every bug the checker must
// catch (the non-vacuity gate).
func MutationCases() []ModelCase {
	return slices.DeleteFunc(cases(), func(c ModelCase) bool { return c.Bug == "" })
}

// Find returns the row (family, name, bug).
func Find(family, name, bug string) (ModelCase, bool) {
	cs := cases()
	i := slices.IndexFunc(cs, func(c ModelCase) bool { return c.Family == family && c.Name == name && c.Bug == bug })
	if i < 0 {
		return ModelCase{}, false
	}
	return cs[i], true
}

var (
	fill0   = TLBOp{Fill: true, Page: 0}
	fill1   = TLBOp{Fill: true, Page: 1}
	lookup0 = TLBOp{Page: 0}
	lookup1 = TLBOp{Page: 1}
)

// cases is the table. Scenarios run on two topologies: 3×2 (page 0; 1, 2;
// 3, 4 under 1; 5, 6 under 2) and 4×2 (15 pages; 7, 8 under 3; 13, 14
// under 6). Each seeded bug sits beside the clean scenario it breaks.
func cases() []ModelCase {
	t3, t4 := NewTopology(3, 2), NewTopology(4, 2)
	ul := []Role{RoleUnmapper, RoleLocker}
	ull := []Role{RoleUnmapper, RoleLocker, RoleLocker}
	rw := func(targets ...int) *RWModel { return &RWModel{Topo: t3, Targets: targets} }
	deep := func(targets ...int) *RWModel { return &RWModel{Topo: t4, Targets: targets} }
	stepwise := func(targets ...int) *RWModel { return &RWModel{Topo: t3, Targets: targets, StepwiseUnlock: true} }
	dyn := func(t *Topology, unmap int, roles []Role, targets ...int) *RWModel {
		return &RWModel{Topo: t, Targets: targets, Roles: roles, UnmapChild: unmap}
	}
	adv := func(t *Topology, unmap int, roles []Role, targets ...int) *AdvModel {
		return &AdvModel{Topo: t, Targets: targets, Roles: roles, UnmapChild: unmap}
	}
	tlb := func(mode TLBMode, unmaps []int8, readers ...[]TLBOp) *TLBModel {
		return &TLBModel{Mode: mode, Unmaps: unmaps, Readers: readers}
	}
	return []ModelCase{
		{Family: "rw", Name: "nested", Model: rw(1, 3)},
		{Family: "rw", Name: "three-cores", Model: rw(3, 4, 1)},
		{Family: "rw", Name: "same-leaf", Model: rw(3, 3)},
		{Family: "rw", Name: "siblings", Model: rw(3, 4)},
		{Family: "rw", Name: "root-leaf", Model: rw(0, 3)},
		{Family: "rw", Name: "disjoint", Model: rw(1, 2)},
		{Family: "rw", Name: "chain", Model: rw(0, 1, 3)},
		{Family: "rw", Name: "nested", Bug: "skip-read-locks", Want: "refinement broken",
			Model: &RWModel{Topo: t3, Targets: []int{1, 3}, SkipReadLocks: true}},
		// The refinement on the 4×2 tree: a nested core's path read-locks
		// a page (3) between the two targets that neither core holds.
		{Family: "refine", Name: "siblings", Model: deep(7, 8)},
		{Family: "refine", Name: "nested", Model: deep(1, 7)},
		{Family: "refine", Name: "root-leaf", Model: deep(0, 7)},
		{Family: "refine", Name: "three-cores", Model: deep(7, 8, 3)},
		{Family: "refine", Name: "nested", Bug: "skip-read-locks", Want: "refinement broken",
			Model: &RWModel{Topo: t4, Targets: []int{1, 7}, SkipReadLocks: true}},
		// Locks released one per step, in Figure 4's Drop order.
		{Family: "stepwise", Name: "same-leaf", Model: stepwise(3, 3)},
		{Family: "stepwise", Name: "nested", Model: stepwise(1, 3)},
		{Family: "stepwise", Name: "three-cores", Model: stepwise(3, 4, 1)},

		{Family: "rwdyn", Name: "race-to-freed", Model: dyn(t3, 3, ul, 1, 3)},
		{Family: "rwdyn", Name: "sibling", Model: dyn(t3, 3, ul, 1, 4)},
		{Family: "rwdyn", Name: "disjoint", Model: dyn(t3, 3, ul, 1, 2)},
		{Family: "rwdyn", Name: "three", Model: dyn(t3, 3, ull, 1, 3, 4)},
		{Family: "rwdyn", Name: "deep", Model: dyn(t4, 14, ul, 6, 14)},
		{Family: "rwdyn", Name: "race-to-freed", Bug: "lockless-no-rcu", Want: "use-after-free",
			Model: &RWModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, SkipReadLocks: true}},

		{Family: "adv", Name: "fig7", Model: adv(t3, 3, ul, 1, 3)},
		{Family: "adv", Name: "disjoint", Model: adv(t3, 3, ul, 1, 2)},
		{Family: "adv", Name: "root", Model: adv(t3, 3, ul, 1, 0)},
		{Family: "adv", Name: "three", Model: adv(t3, 3, ull, 1, 3, 4)},
		{Family: "adv", Name: "twounmap", Model: adv(t3, 3, []Role{RoleUnmapper, RoleUnmapper}, 1, 2)},
		// The locker's second transaction starts at its cached cursor's hint.
		{Family: "adv", Name: "hint", Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, Hinted: true}},
		{Family: "adv", Name: "fig7", Bug: "no-stale-check", Want: "stale|reused",
			Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, NoStaleCheck: true}},
		{Family: "adv", Name: "fig7", Bug: "no-rcu", Want: "UAF|use-after-free|reused",
			Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, NoRCU: true}},
		{Family: "adv", Name: "fig7", Bug: "no-stale-mark", Want: "lost update|use-after-free",
			Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, NoStaleMark: true, NoRCU: true}},
		{Family: "adv", Name: "fig7", Bug: "skip-dfs", Want: "refinement broken",
			Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, SkipDFS: true}},
		{Family: "adv", Name: "hint", Bug: "hint-by-frame", Want: "transacts on reused PT page",
			Model: &AdvModel{Topo: t3, Targets: []int{1, 3}, Roles: ul, UnmapChild: 3, Hinted: true, HintByFrame: true}},
		// Figure 6's rev_dfs: the unmapper removes mid page 3 with its children.
		{Family: "subtree", Name: "locker-into-dying-subtree", Model: adv(t4, 3, ul, 1, 7)},
		{Family: "subtree", Name: "locker-at-dying-page", Model: adv(t4, 3, ul, 1, 3)},
		{Family: "subtree", Name: "disjoint", Model: adv(t4, 3, ul, 1, 2)},
		{Family: "subtree", Name: "locker-into-dying-subtree", Bug: "no-rcu", Want: "UAF|use-after-free",
			Model: &AdvModel{Topo: t4, Targets: []int{1, 7}, Roles: ul, UnmapChild: 3, NoRCU: true}},

		{Family: "tlb", Name: "sync-basic", Model: tlb(TLBSync, []int8{0, 1}, []TLBOp{fill0, lookup0, lookup0, fill1, lookup1})},
		{Family: "tlb", Name: "sync-two-readers", Model: tlb(TLBSync, []int8{0, 1}, []TLBOp{fill0, lookup0}, []TLBOp{fill0, lookup0, lookup1})},
		{Family: "tlb", Name: "sync-ring-wrap", Model: tlb(TLBSync, []int8{1, 1, 1}, []TLBOp{fill0, lookup0, lookup0})},
		{Family: "tlb", Name: "sync-history-left-ring", Model: tlb(TLBSync, []int8{1, 1, 1, 1, 1, 1}, []TLBOp{fill0, lookup0})},
		{Family: "tlb", Name: "earlyack", Model: tlb(TLBEarlyAck, []int8{0, 1}, []TLBOp{fill0, lookup0, lookup0}, []TLBOp{fill1, lookup1})},
		{Family: "tlb", Name: "latr", Model: tlb(TLBLATR, []int8{0, 0, 1}, []TLBOp{fill0, lookup0, lookup0, lookup1})},
		{Family: "tlb", Name: "latr-quiesce", Model: &TLBModel{Mode: TLBLATR, Unmaps: []int8{0, 1},
			Readers: [][]TLBOp{{fill0, lookup0, fill1, lookup1}}, Quiesces: 1}},
		{Family: "tlb", Name: "sync-basic", Bug: "skip-validate", Want: "stale hit", Model: &TLBModel{Mode: TLBSync,
			Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}}, SkipValidate: true}},
		{Family: "tlb", Name: "sync-basic", Bug: "stamp-at-insert", Want: "stale hit", Model: &TLBModel{Mode: TLBSync,
			Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0}}, StampAtInsert: true}},
		{Family: "tlb", Name: "sync-ring-wrap", Bug: "trust-lost-history", Want: "stale hit", Model: &TLBModel{Mode: TLBSync,
			Unmaps: []int8{0, 1, 1}, Readers: [][]TLBOp{{fill0, lookup0}}, TrustLostHistory: true}},
		{Family: "tlb", Name: "earlyack", Bug: "skip-inbox-gate", Want: "stale hit", Model: &TLBModel{Mode: TLBEarlyAck,
			Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}}, SkipInboxGate: true}},
		{Family: "tlb", Name: "latr", Bug: "latr-early-complete", Want: "stale hit", Model: &TLBModel{Mode: TLBLATR,
			Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}}, LATREarlyComplete: true}},
		{Family: "tlb", Name: "latr-quiesce", Bug: "quiesce-misses-sweep", Want: "stale hit", Model: &TLBModel{Mode: TLBLATR,
			Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}}, Quiesces: 1, QuiesceMissesSweep: true}},

		{Family: "reclaim", Name: "interference", Model: &ReclaimModel{}},
		{Family: "reclaim", Name: "interference", Bug: "free-without-barrier", Want: "recycled", Model: &ReclaimModel{FreeWithoutBarrier: true}},
		{Family: "reclaim", Name: "interference", Bug: "eager-free-on-swap", Want: "freed while still mapped", Model: &ReclaimModel{EagerFreeOnSwap: true}},
		{Family: "reclaim", Name: "interference", Bug: "no-tx-guard", Want: "transaction-locked", Model: &ReclaimModel{NoTxGuard: true}},
		{Family: "reclaim", Name: "interference", Bug: "double-free-on-unwind", Want: "twice", Model: &ReclaimModel{DoubleFreeOnUnwind: true}},

		{Family: "bbm", Name: "migration", Model: &MigrateModel{Writes: 2}},
		// No store is needed: the writer's live writable translation at the
		// remap is the violation (with stores, the copy races one first).
		{Family: "bbm", Name: "migration", Bug: "copy-before-break", Want: "remap while", Model: &MigrateModel{OneTxn: true}},
		{Family: "bbm", Name: "migration", Bug: "skip-barrier", Want: "raced", Model: &MigrateModel{Writes: 2, SkipBarrier: true}},
		{Family: "bbm", Name: "migration", Bug: "skip-bbm-invalidate", Want: "remap while|raced", Model: &MigrateModel{Writes: 2, SkipBBMInvalidate: true}},
		{Family: "bbm", Name: "migration", Bug: "free-before-shootdown", Want: "freed frame", Model: &MigrateModel{Writes: 1, FreeBeforeShootdown: true}},
		// Figure 6's order: the fault path waits for the lock the barrier
		// is taken under, inside the read section the barrier waits out.
		{Family: "bbm", Name: "migration", Bug: "lock-in-read-section", Want: "deadlock", Model: &MigrateModel{Writes: 1, LockInReadSection: true}},
	}
}
