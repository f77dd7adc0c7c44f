package spec

import "testing"

// The clean break-before-make protocol: one-transaction migration vs a
// COW-upgrading writer vs a lockless reader, every interleaving. No
// torn copy, no BBM violation, no deadlock, refused pages self-heal,
// terminal states coherent.
func TestMigrateBBMClean(t *testing.T) {
	if res := runCase(t, "bbm", "migration", ""); res.States < 100 {
		t.Errorf("suspiciously small state space (%d)", res.States)
	}
}

// Both outcomes must be reachable in the clean model: a completed
// migration and an abort (the check refusing a forked, copy-on-write
// page) healed by the COW fault path. A model where aborts are
// unreachable would vacuously satisfy the abort invariants.
func TestMigrateAbortReachable(t *testing.T) {
	c, ok := Find("bbm", "migration", "")
	if !ok {
		t.Fatal("no clean bbm/migration row")
	}
	m := c.Model
	sawDone, sawAbort := false, false
	seen := map[string]bool{}
	var walk func(s State)
	walk = func(s State) {
		k := s.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		st := s.(mgState)
		if st.MPC == mDone {
			sawDone = true
		}
		if st.MPC == mAborted {
			sawAbort = true
		}
		for _, step := range m.Next(s) {
			walk(step.To)
		}
	}
	walk(m.Init())
	if !sawDone {
		t.Error("completed migration unreachable")
	}
	if !sawAbort {
		t.Error("abort path unreachable — the self-healing invariant is vacuous")
	}
}

// Skipping the RCU barrier lets the copy overlap an in-flight lockless
// store that started before the break's shootdown.
func TestMigrateSkipBarrierCaught(t *testing.T) { runCase(t, "bbm", "migration", "skip-barrier") }

// Remapping without the break's shootdown violates Armv8-A break-before-
// make: a core still holds a live writable translation of the source.
func TestMigrateSkipBBMInvalidateCaught(t *testing.T) {
	runCase(t, "bbm", "migration", "skip-bbm-invalidate")
}

// Freeing the source before the remap's shootdown leaves the reader's
// cached translation pointing at a freed frame.
func TestMigrateFreeBeforeShootdownCaught(t *testing.T) {
	runCase(t, "bbm", "migration", "free-before-shootdown")
}

// A writer that waits for the fault lock inside its read section stalls
// the barrier the migrator waits for under that lock: the checker must
// report the deadlock.
func TestMigrateLockInReadSectionCaught(t *testing.T) {
	runCase(t, "bbm", "migration", "lock-in-read-section")
}
