package spec

// ModelCase is one named, ready-to-check model configuration. The
// envelope grid (clean cases) and the mutation matrix (seeded-bug
// cases) are the single source of truth shared by the spec tests,
// cmd/mmcheck, and cortenbench -fig spec.
type ModelCase struct {
	Family string // "rw", "adv", "tlb", "reclaim", "bbm"
	Name   string
	Bug    string // "" for clean cases
	Model  Machine
	Bound  int
}

func tlbScenario(mode TLBMode, unmaps []int8, readers [][]TLBOp) *TLBModel {
	return &TLBModel{Mode: mode, Unmaps: unmaps, Readers: readers}
}

var (
	fill0   = TLBOp{Fill: true, Page: 0}
	fill1   = TLBOp{Fill: true, Page: 1}
	lookup0 = TLBOp{Page: 0}
	lookup1 = TLBOp{Page: 1}
)

// EnvelopeCases returns the clean verified-envelope grid: every model at
// its default bounds, all expected to pass with no violation and no
// deadlock.
func EnvelopeCases() []ModelCase {
	topo := NewTopology(3, 2)
	return []ModelCase{
		{Family: "rw", Name: "nested", Model: &RWModel{Topo: topo, Targets: []int{1, 3}}, Bound: 2_000_000},
		{Family: "rw", Name: "three-cores", Model: &RWModel{Topo: topo, Targets: []int{3, 4, 1}}, Bound: 2_000_000},
		{Family: "adv", Name: "fig7", Model: &AdvModel{Topo: topo, Targets: []int{1, 3},
			Roles: []Role{RoleUnmapper, RoleLocker}, UnmapChild: 3}, Bound: 5_000_000},
		{Family: "tlb", Name: "sync-basic", Model: tlbScenario(TLBSync, []int8{0, 1},
			[][]TLBOp{{fill0, lookup0, lookup0, fill1, lookup1}}), Bound: 2_000_000},
		{Family: "tlb", Name: "sync-two-readers", Model: tlbScenario(TLBSync, []int8{0, 1},
			[][]TLBOp{{fill0, lookup0}, {fill0, lookup0, lookup1}}), Bound: 2_000_000},
		{Family: "tlb", Name: "sync-ring-wrap", Model: tlbScenario(TLBSync, []int8{1, 1, 1},
			[][]TLBOp{{fill0, lookup0, lookup0}}), Bound: 2_000_000},
		{Family: "tlb", Name: "sync-overflow-trim", Model: tlbScenario(TLBSync, []int8{1, 1, 1, 1, 1, 1},
			[][]TLBOp{{fill0, lookup0}}), Bound: 2_000_000},
		{Family: "tlb", Name: "earlyack", Model: tlbScenario(TLBEarlyAck, []int8{0, 1},
			[][]TLBOp{{fill0, lookup0, lookup0}, {fill1, lookup1}}), Bound: 2_000_000},
		{Family: "tlb", Name: "latr", Model: tlbScenario(TLBLATR, []int8{0, 0, 1},
			[][]TLBOp{{fill0, lookup0, lookup0, lookup1}}), Bound: 2_000_000},
		{Family: "tlb", Name: "latr-quiesce", Model: &TLBModel{Mode: TLBLATR, Unmaps: []int8{0, 1},
			Readers: [][]TLBOp{{fill0, lookup0, fill1, lookup1}}, Quiesces: 1}, Bound: 2_000_000},
		{Family: "reclaim", Name: "interference", Model: &ReclaimModel{}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Model: &MigrateModel{Writes: 2}, Bound: 5_000_000},
	}
}

// MutationCases returns the seeded-bug matrix: every model family ×
// every seeded bug, each of which the checker must catch (the
// non-vacuity gate run in CI).
func MutationCases() []ModelCase {
	topo := NewTopology(3, 2)
	fig7 := func() ([]int, []Role) { return []int{1, 3}, []Role{RoleUnmapper, RoleLocker} }
	t1, r1 := fig7()
	t2, r2 := fig7()
	t3, r3 := fig7()
	return []ModelCase{
		{Family: "rw", Name: "nested", Bug: "skip-read-locks",
			Model: &RWModel{Topo: topo, Targets: []int{1, 3}, SkipReadLocks: true}, Bound: 2_000_000},
		{Family: "adv", Name: "fig7", Bug: "no-stale-check",
			Model: &AdvModel{Topo: topo, Targets: t1, Roles: r1, UnmapChild: 3, NoStaleCheck: true}, Bound: 5_000_000},
		{Family: "adv", Name: "fig7", Bug: "no-rcu",
			Model: &AdvModel{Topo: topo, Targets: t2, Roles: r2, UnmapChild: 3, NoRCU: true}, Bound: 5_000_000},
		{Family: "adv", Name: "fig7", Bug: "no-stale-mark",
			Model: &AdvModel{Topo: topo, Targets: t3, Roles: r3, UnmapChild: 3, NoStaleMark: true, NoRCU: true}, Bound: 5_000_000},
		{Family: "tlb", Name: "sync-basic", Bug: "skip-validate",
			Model: &TLBModel{Mode: TLBSync, Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}},
				SkipValidate: true}, Bound: 2_000_000},
		{Family: "tlb", Name: "sync-basic", Bug: "stamp-at-insert",
			Model: &TLBModel{Mode: TLBSync, Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0}},
				StampAtInsert: true}, Bound: 2_000_000},
		{Family: "tlb", Name: "sync-ring-wrap", Bug: "drop-overflow",
			Model: &TLBModel{Mode: TLBSync, Unmaps: []int8{1, 1, 1}, Readers: [][]TLBOp{{fill0, lookup0}},
				DropOverflow: true}, Bound: 2_000_000},
		{Family: "tlb", Name: "earlyack", Bug: "skip-inbox-gate",
			Model: &TLBModel{Mode: TLBEarlyAck, Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}},
				SkipInboxGate: true}, Bound: 2_000_000},
		{Family: "tlb", Name: "latr", Bug: "latr-early-complete",
			Model: &TLBModel{Mode: TLBLATR, Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}},
				LATREarlyComplete: true}, Bound: 2_000_000},
		{Family: "tlb", Name: "latr-quiesce", Bug: "quiesce-misses-sweep",
			Model: &TLBModel{Mode: TLBLATR, Unmaps: []int8{0}, Readers: [][]TLBOp{{fill0, lookup0, lookup0}},
				Quiesces: 1, QuiesceMissesSweep: true}, Bound: 2_000_000},
		{Family: "reclaim", Name: "interference", Bug: "free-without-barrier",
			Model: &ReclaimModel{FreeWithoutBarrier: true}, Bound: 5_000_000},
		{Family: "reclaim", Name: "interference", Bug: "eager-free-on-swap",
			Model: &ReclaimModel{EagerFreeOnSwap: true}, Bound: 5_000_000},
		{Family: "reclaim", Name: "interference", Bug: "no-tx-guard",
			Model: &ReclaimModel{NoTxGuard: true}, Bound: 5_000_000},
		{Family: "reclaim", Name: "interference", Bug: "double-free-on-unwind",
			Model: &ReclaimModel{DoubleFreeOnUnwind: true}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Bug: "copy-between-txns",
			Model: &MigrateModel{Writes: 2, CopyBetweenTxns: true}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Bug: "skip-barrier",
			Model: &MigrateModel{Writes: 2, SkipBarrier: true}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Bug: "skip-bbm-invalidate",
			Model: &MigrateModel{Writes: 2, SkipBBMInvalidate: true}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Bug: "skip-revalidate",
			Model: &MigrateModel{Writes: 2, SkipRevalidate: true}, Bound: 5_000_000},
		{Family: "bbm", Name: "migration", Bug: "free-before-shootdown",
			Model: &MigrateModel{Writes: 1, FreeBeforeShootdown: true}, Bound: 5_000_000},
	}
}
