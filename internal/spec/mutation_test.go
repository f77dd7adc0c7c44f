package spec

import (
	"strings"
	"testing"
)

// TestMutationMatrix is the non-vacuity gate CI runs: every seeded bug
// of the table must produce the violation its row names, with a
// reconstructed counterexample trace. A bug the checker cannot catch
// means the corresponding invariant is vacuous.
func TestMutationMatrix(t *testing.T) {
	for _, c := range MutationCases() {
		t.Run(c.Family+"/"+c.Name+"/"+c.Bug, func(t *testing.T) { verify(t, c) })
	}
}

// The clean side of the same table: every scenario must pass. This is
// what `cortenbench -fig spec` records as the Table-4 analog.
func TestEnvelopeClean(t *testing.T) {
	for _, c := range EnvelopeCases() {
		t.Run(c.Family+"/"+c.Name, func(t *testing.T) { verify(t, c) })
	}
}

// verify checks one row and logs what it explored (and, for a seeded
// bug, the counterexample).
func verify(t *testing.T, c ModelCase) Result {
	t.Helper()
	res, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if c.Bug == "" {
		t.Logf("%d states, %d transitions", res.States, res.Transitions)
	} else {
		t.Logf("caught in %d states: %v\ntrace (%d steps): %s",
			res.States, res.Violation, len(res.Trace), strings.Join(res.Trace, " "))
	}
	return res
}

// runCase verifies the table row (family, name, bug).
func runCase(t *testing.T, family, name, bug string) Result {
	t.Helper()
	c, ok := Find(family, name, bug)
	if !ok {
		t.Fatalf("no table row %s/%s/%s", family, name, bug)
	}
	return verify(t, c)
}

// runFamily verifies every clean row of a family, one subtest per row,
// and returns their results by name.
func runFamily(t *testing.T, family string) map[string]Result {
	t.Helper()
	out, rows := map[string]Result{}, 0
	for _, c := range EnvelopeCases() {
		if c.Family == family {
			rows++
			t.Run(c.Name, func(t *testing.T) { out[c.Name] = verify(t, c) })
		}
	}
	if rows == 0 {
		t.Fatalf("no clean rows in family %q", family)
	}
	return out
}
