package bench

import (
	"fmt"
	"time"

	"cortenmm/internal/spec"
)

// FigSpec is the Table-4 analog — instead of proof lines and
// verification time, explored states, checked transitions and checker
// wall time: one fig-spec row per clean scenario of the spec table
// (clean = 1 when it reports neither violation nor deadlock) and one
// fig-spec-mut row per seeded bug (caught = 1 when the checker produced
// the violation the row names, with a counterexample trace). The states
// metric is exact for violation, deadlock and clean runs alike.
func FigSpec(Options) ([]Row, error) {
	var g grid
	for _, c := range append(spec.EnvelopeCases(), spec.MutationCases()...) {
		fig, l := "fig-spec", labels("family", c.Family, "model", c.Name)
		if c.Bug != "" {
			fig, l["bug"] = "fig-spec-mut", c.Bug
		}
		g.cell(fig, l, func() (map[string]float64, error) {
			start := time.Now()
			res, err := c.Verify()
			m := map[string]float64{
				"states": float64(res.States), "transitions": float64(res.Transitions), "trace_steps": float64(len(res.Trace)),
				"time_ms": float64(time.Since(start).Microseconds()) / 1000, "clean": 0, "caught": 0,
			}
			switch {
			case err != nil:
			case c.Bug == "":
				m["clean"] = 1
			default:
				m["caught"] = 1
			}
			return m, nil
		})
	}
	return g.rows, g.err
}

// checkSpec gates both directions of the Table-4 claim: every clean
// scenario is clean, every seeded bug is caught, and neither list is
// below the size the first recorded point had (the live run is pinned
// to the table's exact size by TestEveryFigureEmitsRows).
func checkSpec(rows []Row) error {
	clean, mut := pick(rows, "fig-spec"), pick(rows, "fig-spec-mut")
	if len(clean) < 12 || len(mut) < 19 {
		return fmt.Errorf("fig-spec: expected >= 12 clean and >= 19 mutation rows, got %d/%d", len(clean), len(mut))
	}
	for _, r := range clean {
		if r.Metrics["clean"].Min != 1 {
			return fmt.Errorf("%s: model violated or deadlocked (%.0f states)", r, r.Metrics["states"].Max)
		}
	}
	for _, r := range mut {
		if r.Metrics["caught"].Min != 1 {
			return fmt.Errorf("%s: seeded bug not caught as named (%.0f states explored)", r, r.Metrics["states"].Max)
		}
	}
	return nil
}
