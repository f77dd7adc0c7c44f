package bench

import (
	"errors"
	"fmt"
	"strings"

	"cortenmm/internal/mm"
	"cortenmm/internal/workload"
)

// tenantCores fixes the farm at four worker cores: enough for
// cross-core shootdown fan-out to matter, small enough that the grid
// stays quick.
const tenantCores = 4

// FigTenant runs the tenant-farm churn grid: churn {64, 1k, 8k} × Scale
// (create→fault→serve→destroy) on the CortenMM systems and the Linux
// baseline. Each fig-tenant row carries churn and serve-path
// throughput, the farm-wide peak resident data pages, the allocator's
// generation rollovers and the machine TLB counters, which show what
// generation recycling costs: teardown pays no fan-out (shootdowns) and
// the only full flushes (full_flushes) are the one machine flush per
// rollover. stale_reads counts serves that observed another tenant's
// bytes (a stale translation after an ASID recycle), bounds_escapes
// sandbox-window probes that were not refused. (The asids label is
// constant: the monotonic allocator it was measured against is gone,
// see EXPERIMENTS.md.)
func FigTenant(o Options) ([]Row, error) {
	o = o.norm()
	var g grid
	for _, sys := range []System{CortenAdv, CortenRW, Linux} {
		for _, tenants := range []int{o.iters(64), o.iters(1024), o.iters(8192)} {
			g.cell("fig-tenant", labels("sys", sys, "tenants", tenants, "asids", "recycled"), func() (map[string]float64, error) {
				// Warm set: ring × (data pages + page-table pages), with slack
				// for allocator metadata. Retired tenants release frames, so
				// demand is bounded by the ring, not the churn count.
				cfg := machine(tenantCores, framesFor(24*tenantCores*(16+8)*2))
				cfg.TLBMode = tlbModeFor(sys)
				env, err := newEnv(cfg, nil)
				if err != nil {
					return nil, err
				}
				factory := func() (mm.MM, error) { return NewSystem(sys, env.Machine, nil) }
				res, err := workload.TenantFarm(env.Machine, factory, workload.TenantFarmConfig{Cores: tenantCores, Tenants: tenants})
				m := map[string]float64{
					"tenants_per_s":    res.TenantsPerSec(),
					"serve_mops_per_s": float64(res.ServeOps) / res.Elapsed.Seconds() / 1e6,
					"rollovers":        float64(env.Machine.ASIDStats().Rollovers),
					"stale_reads":      float64(res.StaleReads),
					"bounds_escapes":   float64(res.BoundsEscapes),
					"peak_rss_pages":   float64(res.PeakRSSPages),
				}
				tlbMetrics(m, "", env.Machine.TLB.Stats())
				return m, errors.Join(err, env.Close())
			})
		}
	}
	return g.rows, g.err
}

// checkTenant is the tenant contract: no stale read and no bounds
// escape in any repeat of any row, and tearing a CortenMM tenant down
// costs no shootdown.
func checkTenant(rows []Row) error {
	for _, r := range rows {
		for _, zero := range []string{"stale_reads", "bounds_escapes", "shootdowns"} {
			if zero == "shootdowns" && !strings.HasPrefix(r.Labels["sys"], "corten") {
				continue
			}
			if v := r.Metrics[zero].Max; v != 0 {
				return fmt.Errorf("%s: %s = %.0f, want 0", r, zero, v)
			}
		}
	}
	return nil
}
