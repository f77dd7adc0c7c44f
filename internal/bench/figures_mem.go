package bench

import (
	"errors"
	"fmt"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/radixvm"
	"cortenmm/internal/vma"
	"cortenmm/internal/workload"
)

// corten-ub is Figure 22's theoretical upper bound: corten-adv's run
// with every PT page's metadata array fully populated (§6.5).
const cortenUB System = "corten-ub"

// Fig22 regenerates the memory-overhead comparison under metis — page-
// table bytes, other metadata bytes, the anonymous data they describe
// and (PT+meta)/data as overhead_pct: CortenMM and Linux are close; the
// fully populated per-PTE metadata array bounds CortenMM's worst case;
// RadixVM pays for replication.
func Fig22(o Options) ([]Row, error) {
	o = o.norm()
	threads := maxThreads(o.Threads)
	chunks := o.iters(2)
	var g grid
	for _, sys := range []System{Linux, CortenAdv, cortenUB, RadixVM} {
		g.cell("fig22", labels("sys", sys), func() (map[string]float64, error) {
			run := sys
			if sys == cortenUB {
				run = CortenAdv
			}
			env, err := NewEnv(run, nil, machine(threads, framesFor(threads*chunks*2048+8192)))
			if err != nil {
				return nil, err
			}
			_, err = workload.Metis(env.Machine, env.Sys, threads, chunks)
			st := env.Machine.Phys.Stats()
			var meta uint64
			switch s := env.Sys.(type) {
			case *core.AddrSpace:
				meta = uint64(s.Tree().MetaBytes.Load())
				if sys == cortenUB {
					meta = st.PageTableBytes / arch.PageSize * uint64(unsafe.Sizeof(pt.MetaArray{}))
				}
			case *vma.Space:
				meta = uint64(s.VMACount()) * vmaStructBytes
			case *radixvm.Space:
				meta = s.MetaBytes()
			}
			m := map[string]float64{
				"pt_bytes": float64(st.PageTableBytes), "meta_bytes": float64(meta), "anon_bytes": float64(st.AnonBytes),
			}
			if st.AnonBytes > 0 {
				m["overhead_pct"] = 100 * float64(st.PageTableBytes+meta) / float64(st.AnonBytes)
			}
			return m, errors.Join(err, env.Close())
		})
	}
	return g.rows, g.err
}

// vmaStructBytes approximates sizeof(vm_area_struct) plus tree node.
const vmaStructBytes = 200

// Table2 reports the feature matrix of our implementations, one row
// per system, 1 for a supported feature. The cow, file and swap cells
// are the system's method set: membership in mm.Forker, mm.FileMapper
// and mm.Swapper; Features declares the rest.
func Table2(Options) ([]Row, error) {
	var rows []Row
	for _, sys := range AllSystems {
		env, err := NewEnv(sys, nil, cpusim.Config{Cores: 2, Frames: 1 << 12})
		if err != nil {
			return nil, err
		}
		f := env.Sys.Features()
		_, cow := env.Sys.(mm.Forker)
		_, file := env.Sys.(mm.FileMapper)
		_, swap := env.Sys.(mm.Swapper)
		r := Row{Fig: "table2", Labels: labels("sys", sys), N: 1, Metrics: map[string]Stat{}}
		for name, has := range map[string]bool{
			"ondemand": f.OnDemandPaging, "cow": cow, "swap": swap, "rmap": f.ReverseMapping,
			"file": file, "huge": f.HugePage, "numa": f.NUMAPolicy,
		} {
			v := 0.0
			if has {
				v = 1
			}
			r.Metrics[name] = Stat{v, v, v}
		}
		if err := env.Close(); err != nil {
			return nil, fmt.Errorf("%s: %w", r, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
