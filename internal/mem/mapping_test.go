package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cortenmm/internal/arch"
)

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestMappingWordMatchesModel drives a descriptor's mapping word with
// random map-exclusive / map-shared / unmap / unmapN sequences next to a
// two-field reference, a count and a hint: MapCount() is the count,
// AnonRMap() is the hint iff the count is exactly 1, an unmap below zero
// panics, and a count at the field's limit refuses one more mapping
// rather than carrying into the VPN.
func TestMappingWordMatchesModel(t *testing.T) {
	owners := []*AnonOwner{{Space: "a"}, {Space: "b"}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := new(FrameDesc)
		var count, hint uint64
		var space any
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(6); {
			case op == 0:
				o := owners[rng.Intn(2)]
				va := uint64(1+rng.Int63n(1<<(arch.VABits-arch.PageShift)-1)) << arch.PageShift
				d.MapExclusive(o, va)
				count, hint, space = count+1, va, o.Space
			case op <= 2:
				n := uint64(1)
				if op == 2 {
					n = 1 + uint64(rng.Intn(600))
					d.MapN(n)
				} else {
					d.Map()
				}
				if count == 0 { // a new life does not inherit the last one's hint
					hint = 0
				}
				count += n
			default:
				n := uint64(1)
				if op == 5 {
					n = 1 + uint64(rng.Intn(600))
				}
				if n > count {
					if !panics(func() { d.UnmapN(n) }) {
						t.Logf("seed %d step %d: UnmapN(%d) of a frame mapped %d times did not panic", seed, step, n, count)
						return false
					}
					d.mapping.Add(n) // undo the wrap the panic reported
				} else if count -= n; n == 1 {
					d.Unmap()
				} else {
					d.UnmapN(n)
				}
			}
			if got := d.MapCount(); got != int64(count) {
				t.Logf("seed %d step %d: MapCount() = %d, model %d", seed, step, got, count)
				return false
			}
			wantSpace, wantVA := any(nil), uint64(0)
			if count == 1 && hint != 0 {
				wantSpace, wantVA = space, hint
			}
			if gotSpace, gotVA := d.AnonRMap(); gotSpace != wantSpace || gotVA != wantVA {
				t.Logf("seed %d step %d: AnonRMap() = %v, %#x; model %v, %#x (count %d)", seed, step, gotSpace, gotVA, wantSpace, wantVA, count)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// The field's limit: the last count that fits is taken, one more is
	// refused with the word — count and VPN — left as it was.
	d := new(FrameDesc)
	const va = uint64(0x7fff_ffff_f000)
	d.MapExclusive(owners[0], va)
	d.MapN(mapCountMask - 2)
	d.Map()
	full := d.mapping.Load()
	if d.MapCount() != mapCountMask || full>>mapCountBits<<arch.PageShift != va {
		t.Fatalf("at the limit: count %d, word %#x", d.MapCount(), full)
	}
	for name, f := range map[string]func(){
		"Map":          d.Map,
		"MapN":         func() { d.MapN(3) },
		"MapExclusive": func() { d.MapExclusive(owners[0], 0x1000) },
	} {
		if !panics(f) || d.mapping.Load() != full {
			t.Errorf("%s at the limit: word %#x, want a panic and %#x untouched", name, d.mapping.Load(), full)
		}
	}
	d.UnmapN(mapCountMask - 1)
	if space, got := d.AnonRMap(); space != "a" || got != va {
		t.Errorf("back down to one mapping: hint %v, %#x; want a, %#x", space, got, va)
	}
}
