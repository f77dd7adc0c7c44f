package spec

import "testing"

// TestRWDynNoRCUNeeded verifies the §4.1 claim that CortenMM_rw can
// free removed PT pages immediately, without RCU: over every
// interleaving, a traverser never touches a freed page because it holds
// the parent's reader lock while reading the child link.
func TestRWDynNoRCUNeeded(t *testing.T) { runFamily(t, "rwdyn") }

// TestRWDynBugCaught: without the reader locks, the immediate free IS a
// use-after-free, and the checker produces the interleaving.
func TestRWDynBugCaught(t *testing.T) { runCase(t, "rwdyn", "race-to-freed", "lockless-no-rcu") }

// TestRWDynDeeperTopology pushes the same checks through a 4-level tree.
func TestRWDynDeeperTopology(t *testing.T) { runCase(t, "rwdyn", "deep", "") }
