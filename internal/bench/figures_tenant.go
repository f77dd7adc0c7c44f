package bench

import (
	"fmt"

	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
	"cortenmm/internal/workload"
)

// TenantCell is one point of the fig-tenant grid: tenant-farm churn
// throughput of one system at one churn count. The TLB columns show
// what generation recycling costs: teardown pays no fan-out
// (Shootdowns) and aliasing kills (CrossKills) come only from the one
// machine flush per generation rollover.
type TenantCell struct {
	System  System
	Tenants int
	// TenantsPerSec is the churn throughput (create→fault→serve→destroy).
	TenantsPerSec float64
	// ServeMopsPerSec is the serve-path access rate in millions/sec.
	ServeMopsPerSec float64
	// HitRate is the machine TLB hit rate over the run.
	HitRate float64
	// CrossKills / StaleDrops / Shootdowns / FullFlushes are the
	// machine TLB counters; Rollovers is the allocator generation count.
	CrossKills  uint64
	StaleDrops  uint64
	Shootdowns  uint64
	FullFlushes uint64
	Rollovers   uint64
	// StaleReads counts serves that observed another tenant's bytes
	// (stale translation after an ASID recycle) — must be zero.
	// BoundsEscapes counts sandbox-window probes that were not refused
	// — must be zero.
	StaleReads    uint64
	BoundsEscapes uint64
	// PeakRSSPages is the farm-wide peak resident data-page count.
	PeakRSSPages uint64
}

// tenantCores fixes the farm at four worker cores: enough for
// cross-core shootdown fan-out to matter, small enough that the grid
// stays quick.
const tenantCores = 4

// runTenantOnce measures one farm run on a fresh machine and folds it
// into cell: throughput fields keep the best run, correctness counters
// (stale reads, bounds escapes) are summed — a violation in any run
// must not be masked by taking the best.
func runTenantOnce(sys System, tenants int, cell *TenantCell) error {
	cfg := workload.TenantFarmConfig{Cores: tenantCores, Tenants: tenants}
	// Warm set: ring × (data pages + page-table pages), with slack for
	// allocator metadata. Retired tenants release frames, so demand is
	// bounded by the ring, not the churn count.
	frames := framesFor(24 * tenantCores * (16 + 8) * 2)
	mode := tlb.ModeSync
	if sys == CortenAdv || sys == CortenRW {
		mode = tlb.ModeLATR
	}
	m := cpusim.New(cpusim.Config{
		Cores: tenantCores, Frames: frames, NUMANodes: 2,
		TLBMode: mode,
	})
	factory := func() (mm.MM, error) { return NewSystem(sys, m, nil) }
	res, err := workload.TenantFarm(m, factory, cfg)
	if err != nil {
		m.Quiesce()
		return err
	}
	st := m.TLB.Stats()
	as := m.ASIDStats()
	m.Quiesce()
	cell.StaleReads += res.StaleReads
	cell.BoundsEscapes += res.BoundsEscapes
	if tps := res.TenantsPerSec(); tps > cell.TenantsPerSec {
		cell.TenantsPerSec = tps
		cell.ServeMopsPerSec = float64(res.ServeOps) / res.Elapsed.Seconds() / 1e6
		cell.HitRate = st.HitRate()
		cell.CrossKills = st.CrossKills
		cell.StaleDrops = st.StaleDrops
		cell.Shootdowns = st.Shootdowns
		cell.FullFlushes = st.FullFlushes
		cell.Rollovers = as.Rollovers
		cell.PeakRSSPages = res.PeakRSSPages
	}
	return nil
}

// FigTenant runs the tenant-farm churn grid: churn {64, 1k, 8k} on the
// CortenMM systems and the Linux baseline. The smoke contract is
// stale-reads and bounds-escapes identically zero everywhere and no
// teardown shootdowns. With o.Quick the grid shrinks to the 1k-tenant
// corten-adv row, sized for CI. (The asids column is constant: the
// monotonic allocator it was measured against is gone, see
// EXPERIMENTS.md.)
func FigTenant(o Options) ([]TenantCell, error) {
	o = o.norm()
	fmt.Fprintln(o.W, "# fig-tenant: sandbox churn under ASID recycling")
	systems := []System{CortenAdv, CortenRW, Linux}
	churns := []int{64, 1024, 8192}
	if o.Quick {
		systems = []System{CortenAdv}
		churns = []int{1024}
	}
	var out []TenantCell
	for _, sys := range systems {
		for _, tenants := range churns {
			cell := TenantCell{System: sys, Tenants: tenants}
			for r := 0; r < o.Repeat; r++ {
				if err := runTenantOnce(sys, tenants, &cell); err != nil {
					return nil, fmt.Errorf("tenant %s/%d: %w", sys, tenants, err)
				}
			}
			out = append(out, cell)
			fmt.Fprintf(o.W, "fig-tenant sys=%-10s tenants=%-4d asids=recycled tenants/s=%-8.0f serve-Mops/s=%-6.2f hit=%.3f cross-kills=%-8d stale-drops=%-8d shootdowns=%-6d rollovers=%-3d full-flushes=%-3d stale-reads=%d bounds-escapes=%d peak-rss=%d\n",
				cell.System, cell.Tenants, cell.TenantsPerSec, cell.ServeMopsPerSec, cell.HitRate,
				cell.CrossKills, cell.StaleDrops, cell.Shootdowns, cell.Rollovers, cell.FullFlushes,
				cell.StaleReads, cell.BoundsEscapes, cell.PeakRSSPages)
		}
	}
	return out, nil
}
