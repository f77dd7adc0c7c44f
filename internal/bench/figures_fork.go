package bench

import (
	"errors"

	"cortenmm/internal/mm"
	"cortenmm/internal/workload"
)

// Fig20 regenerates the LMbench process benchmarks — the operations
// that must enumerate the address space, CortenMM's worst case: fork
// should favour Linux (the VMA list beats walking page tables), while
// fork+exec flips to CortenMM because it handles the exec'd image's
// faults faster (§6.2).
func Fig20(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, op := range workload.AllLMbenchOps {
		for _, sys := range []System{Linux, CortenAdv} {
			g.cell("fig20", labels("op", op, "sys", sys), func() (map[string]float64, error) {
				env, err := NewEnv(sys, nil, machine(2, 1<<16))
				if err != nil {
					return nil, err
				}
				newSpace := func() (mm.MM, error) { return NewSystem(sys, env.Machine, nil) }
				res, err := workload.RunLMbench(env.Machine, env.Sys, newSpace, op, 512, o.iters(10))
				return map[string]float64{"us_per_op": float64(res.PerOp.Nanoseconds()) / 1000}, errors.Join(err, env.Close())
			})
		}
	}
	return g.rows, g.err
}
