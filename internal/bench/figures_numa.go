package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
)

// numaPolicies are the placement policies of the grid. local is
// first-touch (the allocator default); interleave round-robins frames
// over the zones like Linux's MPOL_INTERLEAVE; remote forces every
// allocation onto the next node over — the worst case that bounds what
// locality is worth.
var numaPolicies = []string{"local", "interleave", "remote"}

// FigNuma sweeps machines of 1, 2 and 4 NUMA nodes under each placement
// policy: one fig22-numa row per cell (throughput, the fraction of
// frames served from the requesting core's home zone, the cross-node
// spill, shootdown fan-out) and one fig22-numa-node row per node behind
// it. The local-first rows demonstrate node-local allocation (the pcp
// caches and zonelists keep locality near 1.0); the interleave and
// remote rows quantify the spill the policy hook can force. A last
// fig22-numa-balance row is the balancing-migration demonstration.
func FigNuma(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, nodes := range []int{1, 2, 4} {
		for _, policy := range numaPolicies {
			r := g.numaPoint(o, nodes, policy)
			for n := 0; n < nodes; n++ {
				g.rows = append(g.rows, r.split("fig22-numa-node", fmt.Sprintf("node%d.", n), "node", n))
			}
		}
	}
	const pages = 4096 // > the 2048-entry TLB: every round misses
	g.cell("fig22-numa-balance", labels("nodes", 2, "pages", pages), func() (map[string]float64, error) {
		env, err := NewEnv(AdvBase, nil, cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 15, TickEvery: 16})
		if err != nil {
			return nil, err
		}
		m, err := numaBalance(env.Machine, env.Sys.(*core.AddrSpace), pages)
		return m, errors.Join(err, env.Close())
	})
	return g.rows, g.err
}

// checkNuma is the NUMA contract: the grid has its one-node rows,
// first-touch placement on two nodes stays ≥ 0.9 local, and the
// balancer migrated the misplaced working set towards its accessor.
func checkNuma(rows []Row) error {
	if len(pick(rows, "fig22-numa", "nodes", 1)) == 0 {
		return errors.New("fig22-numa: no nodes=1 row")
	}
	local := pick(rows, "fig22-numa", "nodes", 2, "policy", "local")
	if len(local) != 1 {
		return fmt.Errorf("fig22-numa: expected one nodes=2 policy=local row, got %d", len(local))
	}
	if f := local[0].Metrics["local_fraction"].Min; f < 0.9 {
		return fmt.Errorf("%s: local_fraction %.3f < 0.9", local[0], f)
	}
	for _, r := range pick(rows, "fig22-numa-balance") {
		if r.Metrics["numa_migrations"].Min == 0 {
			return fmt.Errorf("%s: balancer migrated nothing", r)
		}
		if before, after := r.Metrics["local_before"].Max, r.Metrics["local_after"].Min; after <= before {
			return fmt.Errorf("%s: locality did not improve: %.3f -> %.3f", r, before, after)
		}
	}
	return nil
}

// numaBalance demonstrates NUMA-balancing page migration: a region
// deliberately misplaced on node 1 is touched round after round from a
// node-0 core while the daemon's NUMA balancer watches the
// access streaks (NoteAccess samples every TLB fill; the working set
// exceeds the TLB so every round refills). checkNuma requires that the
// balancer migrated the hot frames to the accessor's node.
func numaBalance(m *cpusim.Machine, a *core.AddrSpace, pages int) (map[string]float64, error) {
	const rounds = 12
	// Misplace the working set: every frame lands on node 1, while core 0
	// (home: node 0) is the only accessor.
	m.Phys.SetAllocPolicy(func(int) int { return 1 })
	va, err := a.Mmap(0, uint64(pages)*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		return nil, err
	}
	m.Phys.SetAllocPolicy(nil)
	d := core.AttachCompaction(m, core.CompactConfig{
		ScanSpans: -1, FragThreshold: -1, NumaStreak: 4,
	})
	d.Register(a)

	isa := arch.X8664(false)
	localFrac := func() float64 {
		n := 0
		for p := 0; p < pages; p++ {
			if pte, _, ok := a.Tree().Walk(va + arch.Vaddr(p)*arch.PageSize); ok {
				if m.Phys.FrameNode(isa.PFNOf(pte)) == m.NodeOf(0) {
					n++
				}
			}
		}
		return float64(n) / float64(pages)
	}
	before := localFrac()
	for r := 0; r < rounds; r++ {
		for p := 0; p < pages; p++ {
			if _, err := a.Load(0, va+arch.Vaddr(p)*arch.PageSize); err != nil {
				return nil, err
			}
			// User data accesses are not syscalls and issue no op ticks of
			// their own; tick explicitly to model timer interrupts firing
			// during the sustained user phase (the balancer rides ticks).
			m.OpTick(0)
		}
	}
	return map[string]float64{
		"local_before": before, "local_after": localFrac(),
		"numa_migrations": float64(d.Stats().NumaMoves),
	}, nil
}

// numaPoint runs one grid cell: 8 cores spread over the node count, an
// mmap(populate) + touch + munmap loop per core.
func (g *grid) numaPoint(o Options, nodes int, policy string) Row {
	const (
		cores      = 8
		chunkPages = 32
		frames     = 1 << 15
	)
	iters := o.iters(60)
	return g.cell("fig22-numa", labels("nodes", nodes, "policy", policy, "threads", cores), func() (map[string]float64, error) {
		// TickEvery 16: the loop issues few OpTicks per iteration, and
		// the LATR sweeps (the node-batched fan-out under study) only
		// run at ticks.
		env, err := NewEnv(CortenAdv, nil, cpusim.Config{Cores: cores, NUMANodes: nodes, Frames: frames, TickEvery: 16})
		if err != nil {
			return nil, err
		}
		m, a := env.Machine, env.Sys
		switch policy {
		case "interleave":
			var ctr atomic.Uint64
			n := m.Phys.Nodes()
			m.Phys.SetAllocPolicy(func(core int) int { return int(ctr.Add(1)) % n })
		case "remote":
			n := m.Phys.Nodes()
			m.Phys.SetAllocPolicy(func(core int) int { return (m.NodeOf(core) + 1) % n })
		}
		var runErr atomic.Value
		start := time.Now()
		m.Run(cores, func(c int) {
			for i := 0; i < iters; i++ {
				va, err := a.Mmap(c, chunkPages*arch.PageSize, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					runErr.Store(err)
					return
				}
				for p := 0; p < chunkPages; p++ {
					if _, err := a.Load(c, va+arch.Vaddr(p)*arch.PageSize); err != nil {
						runErr.Store(err)
						return
					}
				}
				if err := a.Munmap(c, va, chunkPages*arch.PageSize); err != nil {
					runErr.Store(err)
					return
				}
			}
		})
		elapsed := time.Since(start)
		err, _ = runErr.Load().(error)
		if err = errors.Join(err, env.Close()); err != nil {
			return nil, err
		}
		// Stats after Close so the deferred (LATR) invalidations the run
		// queued are fanned out and counted.
		out := map[string]float64{"pages_per_s": float64(cores*iters*chunkPages) / elapsed.Seconds()}
		tlbMetrics(out, "", m.TLB.Stats())
		shoot := m.TLB.NodeStats()
		var local, remote uint64
		for _, ns := range m.Phys.NodeStats() {
			local += ns.Local
			remote += ns.Remote
			sh := shoot[ns.Node]
			for k, v := range map[string]uint64{
				"local": ns.Local, "remote": ns.Remote, "free": ns.Free,
				"deliveries": sh.Deliveries, "filtered": sh.Filtered, "cluster_ipis": sh.ClusterIPIs,
			} {
				out[fmt.Sprintf("node%d.%s", ns.Node, k)] = float64(v)
			}
		}
		out["spill"] = float64(remote)
		if local+remote > 0 {
			out["local_fraction"] = float64(local) / float64(local+remote)
		}
		return out, nil
	})
}
