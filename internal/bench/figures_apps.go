package bench

import (
	"errors"

	"cortenmm/internal/mm"
	"cortenmm/internal/workload"
)

func newAlloc(which string, sys mm.MM, cores int) workload.Allocator {
	if which == "tcmalloc" {
		return workload.NewTcMalloc(sys, cores)
	}
	return workload.NewPtMalloc(sys)
}

// apps measures one application point of family fig on each system and
// returns its rows.
func (g *grid) apps(fig string, systems []System, app, allocName string, threads int, o Options) []Row {
	var group []Row
	for _, sys := range systems {
		group = append(group, g.app(fig, sys, app, allocName, threads, o))
	}
	return group
}

// normalized is the Figure 15/21 shape: each app on Linux and both
// CortenMM protocols, raw, plus the row normalised to Linux (≈1.0
// means CortenMM adds no overhead; >1 means faster).
func normalized(fig string, appNames []string, allocName string, threads int, o Options) ([]Row, error) {
	var g grid
	for _, app := range appNames {
		g.vsLinux(g.apps(fig, []System{Linux, CortenRW, CortenAdv}, app, allocName, threads, o), "ops_per_s")
	}
	return g.rows, g.err
}

// Fig15 regenerates the single-threaded real-world comparison.
func Fig15(o Options) ([]Row, error) {
	return normalized("fig15", []string{"dedup", "psearchy", "metis", "swaptions", "blackscholes"}, "ptmalloc", 1, o.norm())
}

// Fig16 regenerates JVM thread creation (latency, lower is better) and
// metis (throughput) with the §6.4 ablations adv_base and adv_+vpa.
func Fig16(o Options) ([]Row, error) {
	o = o.norm()
	systems := []System{Linux, CortenRW, AdvBase, AdvVPA, CortenAdv}
	var g grid
	for _, threads := range o.Threads {
		g.apps("fig16", systems, "jvm", "", threads, o)
	}
	for _, threads := range o.Threads {
		g.apps("fig16", append(systems, RadixVM), "metis", "", threads, o)
	}
	return g.rows, g.err
}

// Fig17 regenerates dedup and psearchy under both allocators across the
// thread sweep.
func Fig17(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, app := range []string{"dedup", "psearchy"} {
		for _, allocName := range []string{"ptmalloc", "tcmalloc"} {
			for _, threads := range o.Threads {
				g.apps("fig17", []System{Linux, CortenRW, CortenAdv}, app, allocName, threads, o)
			}
		}
	}
	return g.rows, g.err
}

// Fig18 regenerates the allocator memory-usage comparison: mapped_bytes
// under dedup and psearchy for ptmalloc vs tcmalloc on Linux.
func Fig18(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, app := range []string{"dedup", "psearchy"} {
		for _, allocName := range []string{"ptmalloc", "tcmalloc"} {
			g.app("fig18", Linux, app, allocName, maxThreads(o.Threads), o)
		}
	}
	return g.rows, g.err
}

// Fig21 regenerates the PARSEC-other normalized comparison at 8
// threads: compute-bound workloads must be unaffected by the MM (~1.0).
func Fig21(o Options) ([]Row, error) {
	o = o.norm()
	threads := min(8, maxThreads(o.Threads))
	return normalized("fig21", []string{"blackscholes", "swaptions", "fluidanimate", "canneal"}, "", threads, o)
}

// App measures one application point outside any figure.
func App(sys System, app, allocName string, threads int, o Options) (Row, error) {
	var g grid
	return g.app("app", sys, app, allocName, threads, o), g.err
}

// app measures one application point: throughput (work units per
// second), wall time, the fraction of it inside MM calls, and the
// allocator's resident footprint at the end.
func (g *grid) app(fig string, sys System, app, allocName string, threads int, o Options) Row {
	var frames int
	switch app {
	case "metis":
		frames = framesFor(threads*o.iters(2)*2048 + 8192)
	case "jvm":
		frames = framesFor(threads*200 + 4096)
	default:
		frames = framesFor(threads*1024 + 8192)
	}
	return g.cell(fig, labels("app", app, "alloc", allocName, "threads", threads, "sys", sys), func() (map[string]float64, error) {
		env, err := NewEnv(sys, nil, machine(threads, frames))
		if err != nil {
			return nil, err
		}
		var res workload.AppResult
		switch app {
		case "metis":
			res, err = workload.Metis(env.Machine, env.Sys, threads, o.iters(2))
		case "jvm":
			res, err = workload.JVMThreadCreation(env.Machine, env.Sys, threads)
		case "dedup":
			alloc := newAlloc(allocName, env.Sys, env.Machine.Cores)
			res, err = workload.Dedup(env.Machine, env.Sys, alloc, threads, o.iters(40))
		case "psearchy":
			alloc := newAlloc(allocName, env.Sys, env.Machine.Cores)
			res, err = workload.Psearchy(env.Machine, env.Sys, alloc, threads, o.iters(20))
		default: // PARSEC stand-ins
			res, err = workload.Parsec(env.Machine, env.Sys, app, threads, o.iters(100))
		}
		return map[string]float64{
			"ops_per_s":    res.Throughput(),
			"elapsed_ms":   float64(res.Elapsed.Microseconds()) / 1000,
			"kernel_frac":  res.KernelFrac,
			"mapped_bytes": float64(res.MappedBytes),
		}, errors.Join(err, env.Close())
	})
}
