package tlb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cortenmm/internal/arch"
)

// deliveryShapes are the invalidation shapes of the equivalence table,
// all inside one 2-MiB span at deliveryBase so a huge entry of that span
// overlaps every one of them. A nil shape stands for the whole ASID.
var (
	deliveryBase   = 8 * arch.Vaddr(arch.SpanBytes(2))
	deliveryShapes = []struct {
		name   string
		ranges []Range
	}{
		{"page", []Range{{deliveryBase + 5*arch.PageSize, deliveryBase + 6*arch.PageSize}}},
		{"2M", []Range{{deliveryBase, deliveryBase + arch.Vaddr(arch.SpanBytes(2))}}},
		{"disjoint", func() (rs []Range) {
			for i := 0; i <= maxFanRecs; i++ {
				lo := deliveryBase + arch.Vaddr(16*i)*arch.PageSize
				rs = append(rs, Range{lo, lo + arch.PageSize})
			}
			return rs
		}()},
		{"all", nil},
	}
)

// deliveryWant is what the parent commit's nine entry points produced
// for the same script (ShootdownRanges / ShootdownRangesSync /
// ShootdownAll / ShootdownAllSync, measured before they were collapsed
// into deliver): the Stats deltas {Shootdowns, IPIs, Filtered, Deferred,
// Applied, GenBumps} from just before the shootdown to just after the
// mode's completion point, keyed mode/shape/sync/present.
var deliveryWant = map[string][6]uint64{
	"sync/page/sync=false/present=true":           {1, 1, 0, 0, 0, 1},
	"sync/page/sync=false/present=false":          {1, 0, 1, 0, 0, 0},
	"sync/page/sync=true/present=true":            {1, 1, 0, 0, 0, 1},
	"sync/page/sync=true/present=false":           {1, 0, 1, 0, 0, 0},
	"sync/2M/sync=false/present=true":             {1, 1, 0, 0, 0, 2},
	"sync/2M/sync=false/present=false":            {1, 0, 1, 0, 0, 1},
	"sync/2M/sync=true/present=true":              {1, 1, 0, 0, 0, 2},
	"sync/2M/sync=true/present=false":             {1, 0, 1, 0, 0, 1},
	"sync/disjoint/sync=false/present=true":       {1, 1, 0, 0, 0, 1},
	"sync/disjoint/sync=false/present=false":      {1, 0, 1, 0, 0, 0},
	"sync/disjoint/sync=true/present=true":        {1, 1, 0, 0, 0, 1},
	"sync/disjoint/sync=true/present=false":       {1, 0, 1, 0, 0, 0},
	"sync/all/sync=false/present=true":            {1, 1, 0, 0, 0, 2},
	"sync/all/sync=false/present=false":           {1, 0, 1, 0, 0, 1},
	"sync/all/sync=true/present=true":             {1, 1, 0, 0, 0, 2},
	"sync/all/sync=true/present=false":            {1, 0, 1, 0, 0, 1},
	"early-ack/page/sync=false/present=true":      {1, 0, 0, 1, 1, 0},
	"early-ack/page/sync=false/present=false":     {1, 0, 1, 0, 0, 0},
	"early-ack/page/sync=true/present=true":       {1, 1, 0, 0, 0, 1},
	"early-ack/page/sync=true/present=false":      {1, 0, 1, 0, 0, 0},
	"early-ack/2M/sync=false/present=true":        {1, 0, 0, 1, 1, 2},
	"early-ack/2M/sync=false/present=false":       {1, 0, 1, 0, 0, 1},
	"early-ack/2M/sync=true/present=true":         {1, 1, 0, 0, 0, 2},
	"early-ack/2M/sync=true/present=false":        {1, 0, 1, 0, 0, 1},
	"early-ack/disjoint/sync=false/present=true":  {1, 0, 0, 5, 5, 0},
	"early-ack/disjoint/sync=false/present=false": {1, 0, 1, 0, 0, 0},
	"early-ack/disjoint/sync=true/present=true":   {1, 1, 0, 0, 0, 1},
	"early-ack/disjoint/sync=true/present=false":  {1, 0, 1, 0, 0, 0},
	"early-ack/all/sync=false/present=true":       {1, 0, 0, 1, 1, 2},
	"early-ack/all/sync=false/present=false":      {1, 0, 1, 0, 0, 1},
	"early-ack/all/sync=true/present=true":        {1, 1, 0, 0, 0, 2},
	"early-ack/all/sync=true/present=false":       {1, 0, 1, 0, 0, 1},
	"latr/page/sync=false/present=true":           {1, 0, 0, 1, 1, 1},
	"latr/page/sync=false/present=false":          {1, 0, 0, 1, 1, 1},
	"latr/page/sync=true/present=true":            {1, 1, 0, 0, 0, 1},
	"latr/page/sync=true/present=false":           {1, 0, 1, 0, 0, 0},
	"latr/2M/sync=false/present=true":             {1, 0, 0, 1, 1, 3},
	"latr/2M/sync=false/present=false":            {1, 0, 0, 1, 1, 3},
	"latr/2M/sync=true/present=true":              {1, 1, 0, 0, 0, 2},
	"latr/2M/sync=true/present=false":             {1, 0, 1, 0, 0, 1},
	"latr/disjoint/sync=false/present=true":       {1, 0, 0, 5, 5, 5},
	"latr/disjoint/sync=false/present=false":      {1, 0, 0, 5, 5, 5},
	"latr/disjoint/sync=true/present=true":        {1, 1, 0, 0, 0, 1},
	"latr/disjoint/sync=true/present=false":       {1, 0, 1, 0, 0, 0},
	"latr/all/sync=false/present=true":            {1, 0, 0, 1, 1, 2},
	"latr/all/sync=false/present=false":           {1, 0, 0, 1, 1, 2},
	"latr/all/sync=true/present=true":             {1, 1, 0, 0, 0, 2},
	"latr/all/sync=true/present=false":            {1, 0, 1, 0, 0, 1},
}

// TestDeliveryEquivalence drives every mode × shape × sync ×
// target-presence combination through the one delivery function and
// checks safety — after the mode's completion point (return for sync,
// the target's next Lookup for early-ack, the next Tick for LATR) no
// core serves a covered translation, a huge entry overlapping the
// range is dead, an uncovered entry survives — and that the counters
// moved exactly as they did before the collapse.
func TestDeliveryEquivalence(t *testing.T) {
	const asid = ASID(7)
	span := arch.Vaddr(arch.SpanBytes(2))
	hugeProbe := deliveryBase + 300*arch.PageSize // inside the span, in no page-sized range
	control := deliveryBase + 4*span
	for _, mode := range []Mode{ModeSync, ModeEarlyAck, ModeLATR} {
		for _, shape := range deliveryShapes {
			for _, sync := range []bool{false, true} {
				for _, present := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/sync=%t/present=%t", mode, shape.name, sync, present)
					t.Run(name, func(t *testing.T) {
						m := NewMachine(2, mode)
						covered := []arch.Vaddr{hugeProbe}
						for _, r := range shape.ranges {
							covered = append(covered, r.Lo)
						}
						holders := []int{0}
						if present {
							holders = append(holders, 1)
						}
						for _, c := range holders {
							m.Insert(c, asid, deliveryBase+9*arch.PageSize, trL(1<<20+9, 2))
							m.Insert(c, asid, control, tr(99))
							for i, r := range shape.ranges {
								m.Insert(c, asid, r.Lo, tr(arch.PFN(i+1)))
							}
							for _, va := range covered {
								if _, ok := m.Lookup(c, asid, va); !ok {
									t.Fatalf("core %d misses %#x before the shootdown", c, va)
								}
							}
						}

						before := m.Stats()
						if shape.ranges == nil {
							m.ShootdownAll(0, asid, sync)
						} else {
							m.Shootdown(0, asid, shape.ranges, sync)
						}
						if mode == ModeLATR {
							m.Tick(1)
						}
						for c := 0; c < 2; c++ {
							for _, va := range covered {
								if _, ok := m.Lookup(c, asid, va); ok {
									t.Errorf("core %d still translates %#x", c, va)
								}
							}
						}
						for _, c := range holders {
							if _, ok := m.Lookup(c, asid, control); ok != (shape.ranges != nil) {
								t.Errorf("core %d: uncovered entry hit = %v", c, ok)
							}
						}
						if n := m.PendingInvalidations(); n != 0 {
							t.Errorf("%d invalidations still pending", n)
						}
						after := m.Stats()
						got := [6]uint64{
							after.Shootdowns - before.Shootdowns, after.IPIs - before.IPIs,
							after.Filtered - before.Filtered, after.Deferred - before.Deferred,
							after.Applied - before.Applied, after.GenBumps - before.GenBumps,
						}
						if want, ok := deliveryWant[name]; !ok || got != want {
							t.Errorf("{Shootdowns IPIs Filtered Deferred Applied GenBumps} = %v, parent commit %v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestShootdownMethodSet pins the exported shootdown surface: a page is
// a one-page range and "all" is a flag, so there is nothing for a fourth
// entry point to mean.
func TestShootdownMethodSet(t *testing.T) {
	var got []string
	mt := reflect.TypeOf(&Machine{})
	for i := 0; i < mt.NumMethod(); i++ {
		if n := mt.Method(i).Name; strings.HasPrefix(n, "Shootdown") {
			got = append(got, n)
		}
	}
	if want := []string{"Shootdown", "ShootdownAll", "ShootdownRange"}; !reflect.DeepEqual(got, want) {
		t.Errorf("exported Shootdown* methods = %v, want exactly %v", got, want)
	}
}
