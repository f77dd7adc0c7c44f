package mm

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSnapshotCoversEveryCounter fails when a Stats counter has no
// Snapshot twin, or Snapshot() does not copy it: every counter is set
// to a distinct value and must come back under the same field name.
// The one field that is not a counter is the TimeKernel session count,
// which must stay unexported and out of Snapshot.
func TestSnapshotCoversEveryCounter(t *testing.T) {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	counters := 0
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Type().Field(i); f.Name == "timing" {
			if f.Type != reflect.TypeOf(atomic.Int32{}) {
				t.Fatalf("Stats.timing is %v, want atomic.Int32", f.Type)
			}
			continue
		}
		c, ok := sv.Field(i).Addr().Interface().(*atomic.Uint64)
		if !ok {
			t.Fatalf("Stats.%s is not an atomic.Uint64; teach this test its type", sv.Type().Field(i).Name)
		}
		c.Store(uint64(i) + 1)
		counters++
	}
	snap := reflect.ValueOf(st.Snapshot())
	if snap.NumField() != counters {
		t.Errorf("Snapshot has %d fields, Stats has %d counters", snap.NumField(), counters)
	}
	if f := snap.FieldByName("timing"); f.IsValid() {
		t.Error("Snapshot copies the session count")
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if name == "timing" {
			continue
		}
		f := snap.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Stats.%s has no Snapshot field", name)
			continue
		}
		if got, want := f.Uint(), uint64(i)+1; got != want {
			t.Errorf("Snapshot().%s = %d, want %d: Snapshot() does not copy it", name, got, want)
		}
	}
}
