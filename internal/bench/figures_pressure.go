package bench

import (
	"errors"
	"fmt"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
)

// protocolOf is the locking protocol of the two CortenMM systems.
func protocolOf(sys System) core.Protocol {
	if sys == CortenRW {
		return core.ProtocolRW
	}
	return core.ProtocolAdv
}

// swapEnv is the two-core machine of the pressure and THP figures: one
// CortenMM space, swapping to the machine's device, and the reclaim half
// of the machine's daemon on.
func swapEnv(sys System, physFrames int) (*Env, *core.AddrSpace, *core.Daemon, error) {
	env, err := newEnv(cpusim.Config{Cores: 2, Frames: physFrames}, func(m *cpusim.Machine) (mm.MM, error) {
		return core.New(core.Options{Machine: m, Protocol: protocolOf(sys)})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	a := env.Sys.(*core.AddrSpace)
	return env, a, core.AttachReclaim(env.Machine, core.ReclaimConfig{}), nil
}

// pressureRatios are the pressure figure's working-set sizes, in units
// of physical memory.
var pressureRatios = []float64{0.5, 0.9, 1.5, 3.0}

// FigPressure measures how populate throughput degrades as free-frame
// headroom shrinks: the same chunked populate workload is run with the
// working set at 0.5x, 0.9x, 1.5x and 3x physical memory. Below 1.0 the
// allocator runs from free memory; the overcommitted points only
// complete because direct reclaim swaps cold chunks out under the
// allocation, and the reclaim counters (swap-outs, direct rounds,
// kswapd-style background sweeps, the async writeback queue's
// submitted / completed / failed) show which mechanism carried each
// cell. frag_index is node 0's post-run order-9 external-fragmentation
// index — pressure shatters free memory; this is what compaction would
// have to undo — with the free-block histogram behind it (orders above
// 9 rolled into free_order_high).
func FigPressure(o Options) ([]Row, error) {
	o = o.norm()
	physFrames := max(256, int(2048*o.Scale))
	const chunkPages = 16
	var g grid
	for _, sys := range []System{CortenRW, CortenAdv} {
		for _, ratio := range pressureRatios {
			pages := int(ratio * float64(physFrames))
			g.cell("pressure", labels("sys", sys, "ratio", fmt.Sprintf("%.2f", ratio)), func() (map[string]float64, error) {
				env, a, d, err := swapEnv(sys, physFrames)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				for done := 0; done < pages && err == nil; done += chunkPages {
					n := min(chunkPages, pages-done)
					_, err = a.Mmap(0, uint64(n)*arch.PageSize, arch.PermRW, mm.FlagPopulate)
				}
				elapsed := time.Since(start)
				st := d.Stats()
				m := map[string]float64{
					"pages_per_s":   float64(pages) / elapsed.Seconds(),
					"swap_outs":     float64(a.Stats().SwapOuts.Load()),
					"direct_rounds": float64(st.DirectRounds), "bg_sweeps": float64(st.BgSweeps),
					"swap_queued": float64(st.SwapQueued), "swap_completed": float64(st.SwapCompleted), "swap_failed": float64(st.SwapFailed),
					"frag_index": env.Machine.Phys.FragIndex(0, arch.IndexBits),
				}
				for order, n := range env.Machine.Phys.FreeByOrder(0) {
					if order <= 9 {
						m[fmt.Sprintf("free_order_%d", order)] = float64(n)
					} else {
						m["free_order_high"] += float64(n)
					}
				}
				return m, errors.Join(err, env.Close())
			})
		}
	}
	return g.rows, g.err
}

// checkPressure is the pressure contract, per system: the points inside
// physical memory run from free frames — no swap-out, no direct
// reclaim — and the overcommitted ones complete only through direct
// reclaim, whose swap writebacks all succeed.
func checkPressure(rows []Row) error {
	for _, sys := range []System{CortenRW, CortenAdv} {
		for _, ratio := range pressureRatios {
			rs := pick(rows, "pressure", "sys", sys, "ratio", fmt.Sprintf("%.2f", ratio))
			if len(rs) != 1 {
				return fmt.Errorf("pressure: expected one sys=%s ratio=%.2f row, got %d", sys, ratio, len(rs))
			}
			r, m := rs[0], rs[0].Metrics
			switch {
			case ratio < 1 && (m["swap_outs"].Max != 0 || m["direct_rounds"].Max != 0):
				return fmt.Errorf("%s: reclaim inside physical memory: %g swap-outs, %g direct rounds", r, m["swap_outs"].Max, m["direct_rounds"].Max)
			case ratio > 1 && (m["swap_outs"].Min == 0 || m["direct_rounds"].Min == 0):
				return fmt.Errorf("%s: overcommit completed without reclaim: %g swap-outs, %g direct rounds", r, m["swap_outs"].Min, m["direct_rounds"].Min)
			case ratio > 1 && m["swap_failed"].Max != 0:
				return fmt.Errorf("%s: %g swap writebacks failed", r, m["swap_failed"].Max)
			}
		}
	}
	return nil
}
