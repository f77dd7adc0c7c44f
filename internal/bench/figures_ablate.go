package bench

import (
	"errors"

	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
	"cortenmm/internal/workload"
)

// ablation is one design-choice variant of CortenMM: the space options
// and shootdown protocol that differ from the default, and the
// low-contention micro op that exposes the difference.
type ablation struct {
	Axis, Value string
	Op          workload.MicroOp
	Opts        core.Options
	TLB         tlb.Mode
}

// ablations are the rows DESIGN.md calls out: rw vs adv protocol on
// mmap-PF (the Figure 13/14 protocol comparison condensed into one
// number pair), covering-page vs a degenerate root lock on page faults
// (the value of locking at the lowest covering PT page), and the three
// shootdown protocols of §4.5 on unmap.
var ablations = []ablation{
	{"protocol", "rw", workload.OpMmapPF, core.Options{Protocol: core.ProtocolRW}, tlb.ModeSync},
	{"protocol", "adv", workload.OpMmapPF, core.Options{Protocol: core.ProtocolAdv}, tlb.ModeSync},
	{"lock", "covering", workload.OpPF, core.Options{Protocol: core.ProtocolAdv}, tlb.ModeSync},
	{"lock", "rootlock", workload.OpPF, core.Options{Protocol: core.ProtocolAdv, CoarseLocking: true}, tlb.ModeSync},
	{"tlb", "sync", workload.OpUnmap, core.Options{Protocol: core.ProtocolAdv}, tlb.ModeSync},
	{"tlb", "early-ack", workload.OpUnmap, core.Options{Protocol: core.ProtocolAdv}, tlb.ModeEarlyAck},
	{"tlb", "latr", workload.OpUnmap, core.Options{Protocol: core.ProtocolAdv}, tlb.ModeLATR},
}

// Ablations measures every ablation at the top of the thread sweep.
func Ablations(o Options) ([]Row, error) {
	o = o.norm()
	threads, iters := maxThreads(o.Threads), o.iters(600)
	var g grid
	for _, ab := range ablations {
		g.cell("ablate", labels(ab.Axis, ab.Value, "threads", threads), func() (map[string]float64, error) {
			cfg := cpusim.Config{Cores: threads, Frames: framesFor(threads*iters*4 + 4096), TLBMode: ab.TLB}
			env, err := newEnv(cfg, func(m *cpusim.Machine) (mm.MM, error) {
				opts := ab.Opts
				opts.Machine, opts.PerCoreVA = m, true
				return core.New(opts)
			})
			if err != nil {
				return nil, err
			}
			res, err := workload.RunMicro(env.Machine, env.Sys, workload.MicroConfig{
				Op: ab.Op, Contention: workload.Low, Threads: threads, Iters: iters,
			})
			return map[string]float64{"ops_per_s": res.OpsPerSec()}, errors.Join(err, env.Close())
		})
	}
	return g.rows, g.err
}
