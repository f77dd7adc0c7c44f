package tlb

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/spec"
)

// TestReplayTLBStaleRead pins the TLB staleness model's skip-validate
// counterexample and replays its schedule against the real TLB. The
// buggy model ends in r0:stale_hit — a lookup serving a translation
// whose invalidation already completed. Driving the real Machine
// through the same label sequence (fills as FillBegin + InsertAt,
// delivery as ShootdownPageSync, lookups as Lookup) must never
// reproduce it: every real hit carries a version at least as new as
// the completed invalidation watermark.
func TestReplayTLBStaleRead(t *testing.T) {
	model := func() *spec.TLBModel {
		return &spec.TLBModel{
			Mode:    spec.TLBSync,
			Unmaps:  []int8{0},
			Readers: [][]spec.TLBOp{{{Fill: true, Page: 0}, {Page: 0}, {Page: 0}}},

			SkipValidate: true,
		}
	}
	res := spec.Check(model(), 2_000_000)
	if res.Violation == nil {
		t.Fatal("model did not produce the seeded stale-hit counterexample")
	}
	if last := res.Trace[len(res.Trace)-1]; !strings.HasPrefix(last, "r0:stale_hit") {
		t.Fatalf("counterexample does not end in a stale hit: %v", res.Trace)
	}
	// The trace must be deterministic — BFS reconstruction is pure — or
	// the pinned schedule below would drift between runs.
	if again := spec.Check(model(), 2_000_000); strings.Join(again.Trace, " ") != strings.Join(res.Trace, " ") {
		t.Fatalf("counterexample trace not deterministic:\n%v\n%v", res.Trace, again.Trace)
	}
	t.Logf("replaying: %s", strings.Join(res.Trace, " "))

	m := NewMachine(2, ModeSync)
	const asid = ASID(7)
	const initiator, reader = 0, 1
	vaOf := func(p int) arch.Vaddr { return arch.Vaddr(0x40000000) + arch.Vaddr(p)*arch.PageSize }
	pfnOf := func(p int, ver uint64) arch.PFN { return arch.PFN(uint64(p+1)*1_000_000 + ver) }
	pageArg := func(label string) int {
		arg := spec.LabelArg(label)
		if i := strings.LastIndexByte(arg, ','); i >= 0 {
			arg = arg[i+1:]
		}
		n, err := strconv.Atoi(arg)
		if err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
		return n
	}

	// ver is the current translation version per page; completed is the
	// invalidation-complete watermark (all bindings are serialized by
	// the replayer, so plain variables suffice).
	var ver, completed [2]uint64
	hits, misses := 0, 0

	r := spec.NewReplayer()
	r.Bind("m:unmap", "mutator", func(label string) error {
		ver[pageArg(label)]++
		return nil
	})
	r.Bind("m:deliver", "mutator", func(label string) error {
		p := pageArg(label)
		m.Shootdown(initiator, asid, []Range{{Lo: vaOf(p), Hi: vaOf(p) + arch.PageSize}}, true)
		completed[p] = ver[p]
		return nil
	})
	// A fill is the model's two steps: the walk reads the page's version
	// right after the real FillBegin, the insert publishes that.
	var fillGen, walked uint64
	r.Bind("r0:walk", "reader", func(label string) error {
		fillGen = m.FillBegin(reader, asid)
		walked = ver[pageArg(label)]
		return nil
	})
	r.Bind("r0:fill", "reader", func(label string) error {
		p := pageArg(label)
		m.InsertAt(reader, asid, vaOf(p), pt.Translation{PFN: pfnOf(p, walked), Perm: arch.PermRead, Level: 1}, fillGen)
		return nil
	})
	r.Bind("r0:", "reader", func(label string) error {
		// Any lookup label (hit, miss, inv_miss, stale_hit): the real
		// TLB must satisfy the staleness contract the model checks.
		p := pageArg(label)
		tr, ok := m.Lookup(reader, asid, vaOf(p))
		if !ok {
			misses++
			return nil
		}
		hits++
		got := uint64(tr.PFN) - uint64(p+1)*1_000_000
		if got < completed[p] {
			return fmt.Errorf("real TLB served stale v%d of page %d; invalidation of v<=%d completed", got, p, completed[p])
		}
		if strings.HasPrefix(label, "r0:stale_hit") {
			return fmt.Errorf("real TLB reproduced the model's stale hit on page %d", p)
		}
		return nil
	})
	if err := r.Run(res.Trace); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if hits+misses == 0 {
		t.Fatal("replay drove no lookups")
	}
	t.Logf("replayed %d labels: %d hits, %d misses, all fresh", len(res.Trace), hits, misses)
}
