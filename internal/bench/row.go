package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Stat is one metric over a cell's repeats: the median and the band
// the repeats spanned.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Row is the one result type: which figure, which point of its grid
// (who, which configuration), how many repeats, and what was observed.
// cortenbench writes one Row per line as JSON; BENCH_<pr>.json is that
// output checked in.
type Row struct {
	Fig     string            `json:"fig"`
	Labels  map[string]string `json:"labels"`
	N       int               `json:"n"`
	Metrics map[string]Stat   `json:"metrics"`
}

// String names the row — figure and sorted labels — for error messages
// and as its identity within a run.
func (r Row) String() string {
	keys := make([]string, 0, len(r.Labels))
	for k := range r.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.Fig)
	for _, k := range keys {
		b.WriteString(" " + k + "=" + r.Labels[k])
	}
	return b.String()
}

// labels builds a label set from key, value pairs.
func labels(kv ...any) map[string]string {
	l := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		l[kv[i].(string)] = fmt.Sprint(kv[i+1])
	}
	return l
}

// repeats is how many fresh environments every cell is measured in.
const repeats = 3

// measure runs once repeats times and folds every metric it reports
// the same way: median, min and max over the repeats. A throughput is
// then read off its median with its own spread, a must-be-zero counter
// off its Max. An error on any repeat aborts the cell.
func measure(once func() (map[string]float64, error)) (int, map[string]Stat, error) {
	samples := map[string][]float64{}
	for r := 0; r < repeats; r++ {
		m, err := once()
		if err != nil {
			return r, nil, err
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	stats := make(map[string]Stat, len(samples))
	for k, vs := range samples {
		sort.Float64s(vs)
		stats[k] = Stat{Median: (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2, Min: vs[0], Max: vs[len(vs)-1]}
	}
	return repeats, stats, nil
}

// grid accumulates a figure's rows. After the first failed cell it
// measures nothing more, so a figure is plain loops over its grid and
// one `return g.rows, g.err`.
type grid struct {
	rows []Row
	err  error
}

// cell measures one labelled point of a figure, appends its row and
// returns it (empty once the grid has failed); a failure carries the
// cell's name.
func (g *grid) cell(fig string, l map[string]string, once func() (map[string]float64, error)) Row {
	r := Row{Fig: fig, Labels: l, Metrics: map[string]Stat{}}
	if g.err != nil {
		return r
	}
	n, stats, err := measure(once)
	if err != nil {
		g.err = fmt.Errorf("%s: %w", r, err)
		return r
	}
	r.N, r.Metrics = n, stats
	g.rows = append(g.rows, r)
	return r
}

// sibling is an empty row of family fig at r's grid point: r's labels
// with extra set on top, r's repeat count.
func (r Row) sibling(fig string, extra ...any) Row {
	out := Row{Fig: fig, Labels: labels(extra...), N: r.N, Metrics: map[string]Stat{}}
	for k, v := range r.Labels {
		if _, set := out.Labels[k]; !set {
			out.Labels[k] = v
		}
	}
	return out
}

// split moves the metrics named prefix+x out of r into a sibling row
// (as x) — one measurement reported as two row families.
func (r Row) split(fig, prefix string, extra ...any) Row {
	out := r.sibling(fig, extra...)
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, prefix) {
			out.Metrics[strings.TrimPrefix(k, prefix)] = v
			delete(r.Metrics, k)
		}
	}
	return out
}

// over is the ratio a/b of two measured cells: median over median,
// banded by the extreme pairings.
func over(a, b Stat) Stat {
	return Stat{Median: a.Median / b.Median, Min: a.Min / b.Max, Max: a.Max / b.Min}
}

// pick returns the rows of family fig whose labels include all of want.
func pick(rows []Row, fig string, want ...any) []Row {
	var out []Row
	wanted := labels(want...)
next:
	for _, r := range rows {
		if r.Fig != fig {
			continue
		}
		for k, v := range wanted {
			if r.Labels[k] != v {
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// Figure is one entry of the evaluation: a generator of rows and the
// contract those rows must satisfy (nil when the figure is a
// comparison with no pass/fail reading).
type Figure struct {
	Name  string // the cortenbench -fig argument
	Title string
	Run   func(Options) ([]Row, error)
	Check func([]Row) error
}

// Figures is every figure and table cortenbench regenerates, in print
// order.
var Figures = []Figure{
	{"1", "Figure 1: multicore mmap-PF and unmap throughput", Fig1, nil},
	{"2", "Table 2: supported memory management features (1 = yes)", Table2, nil},
	{"13", "Figure 13: single-threaded microbenchmark throughput", Fig13, nil},
	{"14", "Figure 14: multithreaded microbenchmark throughput, with TLB counters for the CortenMM rows", Fig14, nil},
	{"15", "Figure 15: single-threaded apps, raw and normalized to Linux", Fig15, nil},
	{"16", "Figure 16: JVM thread creation (elapsed_ms, lower is better) and metis with the adv ablations", Fig16, nil},
	{"17", "Figure 17: dedup and psearchy, ptmalloc vs tcmalloc", Fig17, nil},
	{"18", "Figure 18: allocator memory usage (tcmalloc trades memory for fewer unmaps)", Fig18, nil},
	{"19", "Figure 19: microbenchmarks on RISC-V Sv48", Fig19, nil},
	{"20", "Figure 20: LMbench fork/exec/shell latency (lower is better)", Fig20, nil},
	{"21", "Figure 21: 8-thread PARSEC stand-ins, raw and normalized to Linux", Fig21, nil},
	{"22", "Figure 22: memory overhead under metis (page tables + other metadata)", Fig22, nil},
	{"pressure", "Pressure: populate throughput vs free-frame headroom (watermark-driven reclaim)", FigPressure, checkPressure},
	{"batch", "fig13-batch: async batched submission vs one-op-per-call", FigBatch, checkBatch},
	{"numa", "NUMA: allocation locality, node-batched shootdown fan-out, balancing migration (corten-adv)", FigNuma, checkNuma},
	{"tenant", "fig-tenant: sandbox churn under ASID recycling", FigTenant, checkTenant},
	{"thp", "THP: huge coverage / order-9 success on a fragmented zone, pipeline on vs off", FigTHP, checkTHP},
	{"spec", "spec: explored states / transitions / time per model (Table-4 analog) and the mutation matrix", FigSpec, checkSpec},
	{"ablate", "Ablations: locking protocol (mmap-PF), covering-page vs root locking (PF), TLB shootdown protocol (unmap)", Ablations, nil},
}

// Verify judges the rows f.Run produced: there are some, every band is
// ordered, and the figure's own contract holds.
func (f Figure) Verify(rows []Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("figure %s: no rows", f.Name)
	}
	for _, r := range rows {
		for name, s := range r.Metrics {
			if !(s.Min <= s.Median && s.Median <= s.Max) {
				return fmt.Errorf("%s: %s band out of order: %+v", r, name, s)
			}
		}
	}
	if f.Check == nil {
		return nil
	}
	return f.Check(rows)
}

// Emit runs the figure, writes its rows to o.W as JSON lines — also
// the rows of a contract violation, so the offending one can be read —
// and returns the first failure of Run, the write, or Verify.
func (f Figure) Emit(o Options) error {
	rows, err := f.Run(o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(o.norm().W)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return f.Verify(rows)
}
