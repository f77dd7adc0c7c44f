package mm

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSnapshotCoversEveryCounter fails when a Stats counter has no
// Snapshot twin, or Snapshot() does not copy it: every counter is set
// to a distinct value and must come back under the same field name.
func TestSnapshotCoversEveryCounter(t *testing.T) {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	for i := 0; i < sv.NumField(); i++ {
		c, ok := sv.Field(i).Addr().Interface().(*atomic.Uint64)
		if !ok {
			t.Fatalf("Stats.%s is not an atomic.Uint64; teach this test its type", sv.Type().Field(i).Name)
		}
		c.Store(uint64(i) + 1)
	}
	snap := reflect.ValueOf(st.Snapshot())
	if snap.NumField() != sv.NumField() {
		t.Errorf("Snapshot has %d fields, Stats has %d", snap.NumField(), sv.NumField())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
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
