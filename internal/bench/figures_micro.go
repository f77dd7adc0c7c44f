package bench

import (
	"errors"

	"cortenmm/internal/arch"
	"cortenmm/internal/tlb"
	"cortenmm/internal/workload"
)

// microSupports reports whether a system can run an op (NrOS lacks
// on-demand paging, so only mmap-PF and unmap apply, §6.2; for NrOS
// mmap-PF *is* mmap).
func microSupports(sys System, op workload.MicroOp) bool {
	if sys == NrOS {
		return op == workload.OpMmapPF || op == workload.OpUnmap
	}
	return true
}

// tlbMetrics flattens a machine TLB counter snapshot under prefix (see
// EXPERIMENTS.md for the column meanings).
func tlbMetrics(m map[string]float64, prefix string, st tlb.Stats) {
	for k, v := range map[string]float64{
		"hit_rate": st.HitRate(), "lookups": float64(st.Lookups),
		"shootdowns": float64(st.Shootdowns), "ipis": float64(st.IPIs), "cluster_ipis": float64(st.ClusterIPIs),
		"filtered": float64(st.Filtered), "deferred": float64(st.Deferred), "applied": float64(st.Applied),
		"genbumps": float64(st.GenBumps), "evictions": float64(st.Evictions), "staledrops": float64(st.StaleDrops),
		"full_flushes": float64(st.FullFlushes), "huge_hits": float64(st.HugeHits), "huge_evicts": float64(st.HugeEvicts),
	} {
		m[prefix+k] = v
	}
}

// Micro measures one (system, op, contention, threads) point outside
// any figure: its ops_per_s row.
func Micro(sys System, isa arch.ISA, op workload.MicroOp, cont workload.Contention, threads, iters int) (Row, error) {
	var g grid
	return g.micro("micro", sys, isa, op, cont, threads, iters, false), g.err
}

// micro measures one point of family fig as an ops_per_s row and, when
// withTLB and sys is a CortenMM system, a companion fig-tlb row with
// the machine's TLB counters over the same runs.
func (g *grid) micro(fig string, sys System, isa arch.ISA, op workload.MicroOp, cont workload.Contention, threads, iters int, withTLB bool) Row {
	wop := op
	if sys == NrOS && op == workload.OpMmapPF {
		wop = workload.OpMmap // NrOS mmap is eager: it *is* mmap-PF
	}
	r := g.cell(fig, labels("op", op, "contention", cont, "threads", threads, "sys", sys), func() (map[string]float64, error) {
		// mmap-PF/PF back 4 pages per op; unmap pre-backs the same.
		env, err := NewEnv(sys, isa, machine(threads, framesFor(threads*iters*4+4096)))
		if err != nil {
			return nil, err
		}
		res, err := workload.RunMicro(env.Machine, env.Sys, workload.MicroConfig{
			Op: wop, Contention: cont, Threads: threads, Iters: iters,
		})
		m := map[string]float64{"ops_per_s": res.OpsPerSec()}
		tlbMetrics(m, "tlb.", env.Machine.TLB.Stats())
		return m, errors.Join(err, env.Close())
	})
	if tlbRow := r.split(fig+"-tlb", "tlb."); withTLB && (sys == CortenRW || sys == CortenAdv) {
		g.rows = append(g.rows, tlbRow)
	}
	return r
}

// micros measures one grid point on each system that supports the op
// and returns the ops_per_s rows.
func (g *grid) micros(fig string, systems []System, isa arch.ISA, op workload.MicroOp, cont workload.Contention, threads, iters int, withTLB bool) []Row {
	var group []Row
	for _, sys := range systems {
		if microSupports(sys, op) {
			group = append(group, g.micro(fig, sys, isa, op, cont, threads, iters, withTLB))
		}
	}
	return group
}

// vsLinux appends the normalised row of one grid point's per-system
// rows: each CortenMM system's metric over Linux's.
func (g *grid) vsLinux(group []Row, metric string) {
	if g.err != nil {
		return
	}
	linux := pick(group, group[0].Fig, "sys", Linux)[0]
	out := linux.sibling(linux.Fig, "sys", "vs-linux")
	out.Metrics["rw_over_linux"] = over(pick(group, linux.Fig, "sys", CortenRW)[0].Metrics[metric], linux.Metrics[metric])
	out.Metrics["adv_over_linux"] = over(pick(group, linux.Fig, "sys", CortenAdv)[0].Metrics[metric], linux.Metrics[metric])
	g.rows = append(g.rows, out)
}

// Fig1 regenerates the teaser: multicore throughput of (a) mmap+access
// and (b) munmap, comparing Linux, the two research baselines, and
// CortenMM.
func Fig1(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, op := range []workload.MicroOp{workload.OpMmapPF, workload.OpUnmap} {
		for _, threads := range o.Threads {
			g.micros("fig1", []System{Linux, RadixVM, NrOS, CortenAdv}, nil, op, workload.Low, threads, o.iters(800), false)
		}
	}
	return g.rows, g.err
}

// Fig13 regenerates the single-threaded microbenchmarks: throughput of
// the five Table-3 operations on every system, and CortenMM over Linux.
func Fig13(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, op := range workload.AllMicroOps {
		g.vsLinux(g.micros("fig13", AllSystems, nil, op, workload.Low, 1, o.iters(1500), false), "ops_per_s")
	}
	return g.rows, g.err
}

// Fig14 regenerates the multithreaded microbenchmarks: the five ops,
// low- and high-contention variants, across the thread sweep, with
// companion TLB-counter rows for the systems under study.
func Fig14(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, cont := range []workload.Contention{workload.Low, workload.High} {
		for _, op := range workload.AllMicroOps {
			for _, threads := range o.Threads {
				g.micros("fig14", AllSystems, nil, op, cont, threads, o.iters(600), true)
			}
		}
	}
	return g.rows, g.err
}

// Fig19 regenerates the RISC-V portability check: the Table-3 ops under
// the riscv64 page-table format, single-threaded and multithreaded,
// Linux vs CortenMM. The performance relationships should mirror the
// x86-64 results (§6.7).
func Fig19(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	sweep := []int{1}
	if mt := maxThreads(o.Threads); mt > 1 {
		sweep = append(sweep, mt)
	}
	for _, threads := range sweep {
		for _, op := range workload.AllMicroOps {
			g.micros("fig19", []System{Linux, CortenRW, CortenAdv}, arch.RISCV(), op, workload.Low, threads, o.iters(800), false)
		}
	}
	return g.rows, g.err
}
