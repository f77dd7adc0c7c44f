package spec

import "testing"

// TestAdvSubtreeRemoval exercises the full Figure-6 rev_dfs path: the
// unmapper removes a *mid-level* PT page whose children it also locked,
// so the removal takes several interleaved steps (unlink, then
// stale+unlock+enqueue per descendant, deepest first) while lockers
// race toward the dying subtree.
func TestAdvSubtreeRemoval(t *testing.T) { runFamily(t, "subtree") }

// TestAdvSubtreeRemovalBugCaught: the multi-page removal without RCU is
// caught just like the single-page one.
func TestAdvSubtreeRemovalBugCaught(t *testing.T) {
	runCase(t, "subtree", "locker-into-dying-subtree", "no-rcu")
}
