package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/spec"
)

// quick are tiny options so the whole figure suite smoke-runs in CI.
func quick() Options {
	return Options{Threads: []int{1, 2}, Scale: 0.2}
}

// wantRows is every figure's row families and how many rows of each the
// quick() grid produces (spec: one row per row of the spec table).
var wantRows = map[string]map[string]int{
	"1":        {"fig1": 2 * 2 * 4},
	"2":        {"table2": 5},
	"13":       {"fig13": 5*5 - 3 + 5}, // NrOS skips three ops; one vs-linux row per op
	"14":       {"fig14": 2 * 2 * (5*5 - 3), "fig14-tlb": 2 * 2 * 5 * 2},
	"15":       {"fig15": 5 * 4},
	"16":       {"fig16": 2*5 + 2*6},
	"17":       {"fig17": 2 * 2 * 2 * 3},
	"18":       {"fig18": 4},
	"19":       {"fig19": 2 * 5 * 3},
	"20":       {"fig20": 3 * 2},
	"21":       {"fig21": 4 * 4},
	"22":       {"fig22": 4},
	"pressure": {"pressure": 2 * 4},
	"batch":    {"batch": 58},
	"numa":     {"fig22-numa": 9, "fig22-numa-balance": 1},
	"tenant":   {"fig-tenant": 9},
	"thp":      {"thp": 4},
	"spec":     {"fig-spec": len(spec.EnvelopeCases()), "fig-spec-mut": len(spec.MutationCases())},
	"ablate":   {"ablate": 7},
}

// banded names every metric that is not exact: run to run it moves on
// the same commit, so it is read against the recorded band by eye and
// never compared. Every other metric of every row is a count, compared
// bit for bit with the newest point, so a new count is checked by
// default. Metric names are filepath.Match patterns; labels, when
// given, narrow an entry to the rows that carry them.
var banded = []struct {
	fig     string // "" = every family
	labels  []any
	metrics []string
}{
	// Timings and ratios of timings.
	{"", nil, []string{"ops_per_s", "pages_per_s", "elapsed_ms", "kernel_frac", "time_ms", "us_per_op", "speedup", "*_over_linux", "tenants_per_s", "serve_mops_per_s"}},
	// The TLB's replacement and ASID recycling race the serving threads.
	{"fig-tenant", nil, []string{"evictions", "hit_rate", "staledrops", "peak_rss_pages"}},
	// Two threads race the generation bumps and cluster fan-out; one
	// thread is exact.
	{"fig14-tlb", []any{"threads", 2}, []string{"applied", "cluster_ipis", "genbumps", "evictions"}},
	// Eight cores on one machine race the zones and the LATR sweeps.
	{"fig22-numa", nil, []string{"cluster_ipis", "genbumps", "local_fraction", "spill"}},
}

// isBanded reports whether metric of r is banded rather than exact.
func isBanded(r Row, metric string) bool {
	for _, b := range banded {
		if (b.fig != "" && b.fig != r.Fig) || len(pick([]Row{r}, r.Fig, b.labels...)) == 0 {
			continue
		}
		for _, pat := range b.metrics {
			if ok, _ := filepath.Match(pat, metric); ok {
				return true
			}
		}
	}
	return false
}

// fullScaleContract are the figures whose contract reads a timing ratio
// (batch) or needs the full grid's geometry (thp): cortenbench gates
// them in CI and TestRecordedTrajectoryParses on the recorded rows; at
// quick() scale only their count-based readings are asserted.
var fullScaleContract = map[string]bool{"batch": true, "thp": true}

func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q", name)
	return Figure{}
}

// ran caches each figure's quick() rows, so the per-figure tests and
// TestEveryFigureEmitsRows measure once per test binary.
var ran = map[string][]Row{}

func rowsOf(t *testing.T, name string) []Row {
	t.Helper()
	if rows, ok := ran[name]; ok {
		return rows
	}
	rows, err := figure(t, name).Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	ran[name] = rows
	return rows
}

func med(r Row, metric string) float64 { return r.Metrics[metric].Median }

// one is the single row pick must find.
func one(t *testing.T, rows []Row, fig string, want ...any) Row {
	t.Helper()
	got := pick(rows, fig, want...)
	if len(got) != 1 {
		t.Fatalf("%s %v: %d rows, want 1", fig, want, len(got))
	}
	return got[0]
}

// figAsserts are the per-figure readings beyond shape and contract.
var figAsserts = map[string]func(t *testing.T, rows []Row){
	"13": func(t *testing.T, rows []Row) {
		if n := len(pick(rows, "fig13", "sys", NrOS)); n != 2 {
			t.Errorf("nros ran %d ops, want 2 (no on-demand paging)", n)
		}
		for _, r := range rows {
			if r.Labels["sys"] != "vs-linux" && med(r, "ops_per_s") <= 0 {
				t.Errorf("%s: zero throughput", r)
			}
		}
		for _, r := range pick(rows, "fig13", "sys", "vs-linux") {
			adv, linux := one(t, rows, "fig13", "op", r.Labels["op"], "sys", CortenAdv), one(t, rows, "fig13", "op", r.Labels["op"], "sys", Linux)
			if got, want := med(r, "adv_over_linux"), med(adv, "ops_per_s")/med(linux, "ops_per_s"); got != want {
				t.Errorf("%s: adv_over_linux %v, want the ratio of medians %v", r, got, want)
			}
		}
	},
	"14": func(t *testing.T, rows []Row) {
		if len(pick(rows, "fig14", "contention", "low")) == 0 || len(pick(rows, "fig14", "contention", "high")) == 0 {
			t.Error("a contention level is missing")
		}
		for _, r := range pick(rows, "fig14-tlb") {
			if s := r.Labels["sys"]; s != string(CortenRW) && s != string(CortenAdv) {
				t.Errorf("%s: TLB row for a system not under study", r)
			}
			for _, k := range []string{"hit_rate", "lookups", "shootdowns", "ipis", "cluster_ipis", "filtered", "deferred",
				"applied", "genbumps", "evictions", "staledrops", "full_flushes", "huge_hits", "huge_evicts"} {
				if _, ok := r.Metrics[k]; !ok {
					t.Errorf("%s: TLB counter %s missing: %v", r, k, r.Metrics)
				}
			}
		}
	},
	"15": func(t *testing.T, rows []Row) {
		r := one(t, rows, "fig15", "app", "dedup", "sys", "vs-linux")
		if med(r, "adv_over_linux") <= 0 || med(r, "rw_over_linux") <= 0 {
			t.Errorf("%s: normalised values missing: %v", r, r.Metrics)
		}
		if raw := one(t, rows, "fig15", "app", "dedup", "sys", CortenAdv); med(raw, "ops_per_s") <= 0 {
			t.Errorf("%s: raw throughput missing", raw)
		}
	},
	"16": func(t *testing.T, rows []Row) {
		if len(pick(rows, "fig16", "sys", AdvBase)) == 0 || len(pick(rows, "fig16", "sys", AdvVPA)) == 0 {
			t.Error("ablations missing from Fig16")
		}
	},
	"18": func(t *testing.T, rows []Row) {
		// For dedup (large blocks above the mmap threshold) tcmalloc must
		// hold at least as much memory as ptmalloc; at this tiny scale
		// psearchy is dominated by ptmalloc's untrimmed arenas, so only the
		// presence of both numbers is checked there.
		for _, app := range []string{"dedup", "psearchy"} {
			pt, tc := one(t, rows, "fig18", "app", app, "alloc", "ptmalloc"), one(t, rows, "fig18", "app", app, "alloc", "tcmalloc")
			if med(tc, "mapped_bytes") == 0 {
				t.Errorf("%s: tcmalloc reports no memory", tc)
			}
			if app == "dedup" && med(tc, "mapped_bytes") < med(pt, "mapped_bytes") {
				t.Errorf("%s: tcmalloc (%v) holds less than ptmalloc (%v)", tc, med(tc, "mapped_bytes"), med(pt, "mapped_bytes"))
			}
		}
	},
	"20": func(t *testing.T, rows []Row) {
		for _, r := range rows {
			if med(r, "us_per_op") <= 0 {
				t.Errorf("%s: zero latency", r)
			}
		}
	},
	"22": func(t *testing.T, rows []Row) {
		linux, corten := one(t, rows, "fig22", "sys", Linux), one(t, rows, "fig22", "sys", CortenAdv)
		radix, ub := one(t, rows, "fig22", "sys", RadixVM), one(t, rows, "fig22", "sys", cortenUB)
		if med(corten, "pt_bytes") == 0 || med(linux, "pt_bytes") == 0 {
			t.Fatal("missing PT accounting")
		}
		// The paper's claims: CortenMM ≈ Linux; RadixVM replicates page
		// tables (strictly more PT bytes); a metadata array is one word
		// beside each PTE, so fully populating them *doubles* the tables
		// (§3.3) and stays within 2% of the data.
		if med(radix, "pt_bytes") <= med(corten, "pt_bytes") {
			t.Errorf("radixvm PT %v <= corten PT %v; replication overhead missing", med(radix, "pt_bytes"), med(corten, "pt_bytes"))
		}
		if med(ub, "meta_bytes") != med(ub, "pt_bytes") || med(ub, "overhead_pct") >= 2 {
			t.Errorf("upper bound does not double the tables within 2%% of the data: %v", ub.Metrics)
		}
		if med(corten, "meta_bytes") > med(corten, "pt_bytes") || med(ub, "meta_bytes") <= med(corten, "meta_bytes") {
			t.Errorf("measured metadata %v outside (0, upper bound %v]", corten.Metrics, ub.Metrics)
		}
		if med(corten, "overhead_pct") > 3*med(linux, "overhead_pct")+5 {
			t.Errorf("corten overhead %.2f%% far above linux %.2f%%", med(corten, "overhead_pct"), med(linux, "overhead_pct"))
		}
	},
	"2": checkTable2Matrix,
	"batch": func(t *testing.T, rows []Row) {
		gated := pick(rows, "batch", "mix", "munmap-heavy", "threads", 1, "batch", 64)
		if len(gated) != 2 {
			t.Fatalf("%d gated rows, want the two CortenMM systems", len(gated))
		}
		for _, r := range gated {
			if r.Metrics["shootdowns"].Max > r.Metrics["groups"].Min || med(r, "groups") == 0 {
				t.Errorf("%s: more than one fan-out per group: %v", r, r.Metrics)
			}
		}
		for _, r := range rows {
			if _, has := r.Metrics["speedup"]; has != (r.Labels["batch"] != "1") {
				t.Errorf("%s: speedup belongs on the batched rows only", r)
			}
		}
	},
	"thp": func(t *testing.T, rows []Row) {
		for _, r := range pick(rows, "thp", "pipeline", false) {
			if r.Metrics["coverage"].Max != 0 || r.Metrics["promotions"].Max != 0 {
				t.Errorf("%s: huge pages without the pipeline: %v", r, r.Metrics)
			}
		}
		for _, r := range rows {
			if med(r, "pages_per_s") <= 0 {
				t.Errorf("%s: no throughput", r)
			}
		}
	},
	"pressure": func(t *testing.T, rows []Row) {
		for _, r := range rows {
			if med(r, "pages_per_s") <= 0 {
				t.Errorf("%s: no throughput", r)
			}
		}
	},
}

// testFigure is everything asserted of one figure's rows: the families
// and counts of wantRows, unique (Fig, Labels), N and ordered bands,
// JSON round-trip, the figure's own contract, and its figAsserts.
func testFigure(t *testing.T, name string) {
	rows := rowsOf(t, name)
	got := map[string]int{}
	seen := map[string]bool{}
	for _, r := range rows {
		got[r.Fig]++
		if seen[r.String()] {
			t.Errorf("duplicate row %s", r)
		}
		seen[r.String()] = true
		if wantN := repeats; r.N != wantN && r.Fig != "table2" {
			t.Errorf("%s: N = %d, want %d", r, r.N, wantN)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		var back Row
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, r) {
			t.Errorf("%s does not survive JSON: %v\n got %+v\nwant %+v", r, err, back, r)
		}
	}
	for fig, n := range wantRows[name] {
		if got[fig] != n {
			t.Errorf("%s: %d rows, want %d", fig, got[fig], n)
		}
	}
	if len(got) != len(wantRows[name]) {
		t.Errorf("row families %v, want those of %v", got, wantRows[name])
	}
	f := figure(t, name)
	if fullScaleContract[name] {
		f.Check = nil
	}
	if err := f.Verify(rows); err != nil {
		t.Error(err)
	}
	if assert := figAsserts[name]; assert != nil {
		assert(t, rows)
	}
}

func TestEveryFigureEmitsRows(t *testing.T) {
	if len(wantRows) != len(Figures) {
		t.Errorf("wantRows covers %d figures, Figures has %d", len(wantRows), len(Figures))
	}
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) { testFigure(t, f.Name) })
	}
}

// The per-figure entry points of the suite, by their long-standing
// names: each is one subtest of TestEveryFigureEmitsRows.
func TestFig1(t *testing.T)        { testFigure(t, "1") }
func TestTable2(t *testing.T)      { testFigure(t, "2") }
func TestFig13(t *testing.T)       { testFigure(t, "13") }
func TestFig14(t *testing.T)       { testFigure(t, "14") }
func TestFig15(t *testing.T)       { testFigure(t, "15") }
func TestFig16(t *testing.T)       { testFigure(t, "16") }
func TestFig17And18(t *testing.T)  { testFigure(t, "17"); testFigure(t, "18") }
func TestFig19RISCV(t *testing.T)  { testFigure(t, "19") }
func TestFig20(t *testing.T)       { testFigure(t, "20") }
func TestFig21(t *testing.T)       { testFigure(t, "21") }
func TestFig22(t *testing.T)       { testFigure(t, "22") }
func TestFigPressure(t *testing.T) { testFigure(t, "pressure") }

// table2Matrix is every cell of Table 2 as the five systems answer it:
// cow, file and swap by their method sets (mm.Forker, mm.FileMapper,
// mm.Swapper), the other four columns by Features.
var table2Matrix = map[System]string{
	Linux:     "cow=1 file=1 huge=0 numa=0 ondemand=1 rmap=0 swap=0",
	CortenRW:  "cow=1 file=1 huge=1 numa=1 ondemand=1 rmap=1 swap=1",
	CortenAdv: "cow=1 file=1 huge=1 numa=1 ondemand=1 rmap=1 swap=1",
	RadixVM:   "cow=0 file=0 huge=0 numa=1 ondemand=1 rmap=0 swap=0",
	NrOS:      "cow=0 file=0 huge=0 numa=1 ondemand=0 rmap=0 swap=0",
}

// checkTable2Matrix compares each system's table2 row, cell for cell,
// with table2Matrix.
func checkTable2Matrix(t *testing.T, rows []Row) {
	t.Helper()
	for _, sys := range AllSystems {
		r := one(t, rows, "table2", "sys", sys)
		var cells []string
		for name, st := range r.Metrics {
			cells = append(cells, fmt.Sprintf("%s=%g", name, st.Median))
		}
		sort.Strings(cells)
		if got := strings.Join(cells, " "); got != table2Matrix[sys] {
			t.Errorf("%s: %s, want %s", sys, got, table2Matrix[sys])
		}
	}
}

// TestTable2Matrix pins all 35 cells of Table 2.
func TestTable2Matrix(t *testing.T) { checkTable2Matrix(t, rowsOf(t, "2")) }

func TestNewSystemAll(t *testing.T) {
	for _, sys := range append(AllSystems, AdvBase, AdvVPA) {
		env, err := NewEnv(sys, nil, machine(2, 1<<13))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if err := env.Close(); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
	}
	if _, err := NewSystem("vms/370", nil, nil); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestMeasureMedianAndBand(t *testing.T) {
	script := []float64{5, 1, 3}
	calls := 0
	n, stats, err := measure(func() (map[string]float64, error) {
		calls++
		return map[string]float64{"x": script[calls-1], "zero": 0}, nil
	})
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("n=%d calls=%d err=%v, want 3 repeats", n, calls, err)
	}
	if want := (Stat{Median: 3, Min: 1, Max: 5}); stats["x"] != want {
		t.Errorf("x = %+v, want %+v", stats["x"], want)
	}
	if stats["zero"] != (Stat{}) {
		t.Errorf("zero = %+v", stats["zero"])
	}

	boom := errors.New("boom")
	calls = 0
	_, _, err = measure(func() (map[string]float64, error) {
		if calls++; calls == 2 {
			return nil, boom
		}
		return map[string]float64{"x": 1}, nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Errorf("err=%v after %d calls, want boom aborting at the second", err, calls)
	}
	var g grid
	calls = 0
	failing := func() (map[string]float64, error) { calls++; return nil, boom }
	g.cell("figX", labels("sys", Linux), failing)
	g.cell("figX", labels("sys", CortenAdv), failing)
	if !errors.Is(g.err, boom) || !strings.Contains(g.err.Error(), "figX sys=linux") || calls != 1 || len(g.rows) != 0 {
		t.Errorf("grid after a failed cell: err %q, %d calls, %d rows; want the first cell named and nothing measured after it", g.err, calls, len(g.rows))
	}
}

// leaky is a space whose Destroy does nothing.
type leaky struct{ mm.MM }

func (leaky) Destroy(int) {}

func TestCloseAuditsAndReportsLeak(t *testing.T) {
	env, err := NewEnv(CortenAdv, nil, machine(2, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Sys.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	real := env.Sys
	env.Sys = leaky{real}
	if err := env.Close(); err == nil || !strings.Contains(err.Error(), "left after teardown") {
		t.Errorf("Close over a leaked mapping = %v, want the leak reported", err)
	}
	env.Sys = real
	if err := env.Close(); err != nil {
		t.Errorf("Close after the real Destroy: %v", err)
	}

	// A swap block nothing gave back is a leak too.
	env, err = NewEnv(CortenAdv, nil, machine(2, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	dev := env.Machine.Phys.Swap()
	block := dev.AllocBlock()
	if err := env.Close(); err == nil || !strings.Contains(err.Error(), "swap blocks left after teardown") {
		t.Errorf("Close over a held swap block = %v, want the leak reported", err)
	}
	dev.FreeBlock(block)
	if err := env.Close(); err != nil {
		t.Errorf("Close after the block was freed: %v", err)
	}

	// So is a file still holding an object id.
	env, err = NewEnv(CortenAdv, nil, machine(2, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	f := mem.NewFile(env.Machine.Phys, "f", arch.PageSize)
	if err := f.Hold(); err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err == nil || !strings.Contains(err.Error(), "object id after teardown") {
		t.Errorf("Close over a held file = %v, want the leak reported", err)
	}
	f.Release(1)
	if err := env.Close(); err != nil {
		t.Errorf("Close after the file was released: %v", err)
	}
}

// flat builds a row whose every metric was the same in all repeats.
func flat(fig string, l map[string]string, metrics map[string]float64) Row {
	r := Row{Fig: fig, Labels: l, N: repeats, Metrics: map[string]Stat{}}
	for k, v := range metrics {
		r.Metrics[k] = Stat{v, v, v}
	}
	return r
}

func TestChecksRejectDoctoredRows(t *testing.T) {
	tenant := func() []Row {
		return []Row{
			flat("fig-tenant", labels("sys", CortenAdv, "tenants", 1024), map[string]float64{"stale_reads": 0, "bounds_escapes": 0, "shootdowns": 0}),
			flat("fig-tenant", labels("sys", Linux, "tenants", 1024), map[string]float64{"stale_reads": 0, "bounds_escapes": 0, "shootdowns": 7}),
		}
	}
	numa := func() []Row {
		return []Row{
			flat("fig22-numa", labels("nodes", 1, "policy", "local"), map[string]float64{"local_fraction": 1}),
			flat("fig22-numa", labels("nodes", 2, "policy", "local"), map[string]float64{"local_fraction": 1}),
			flat("fig22-numa-balance", labels("nodes", 2), map[string]float64{"local_before": 0, "local_after": 0.6, "numa_migrations": 2560}),
		}
	}
	batch := func() []Row {
		var rows []Row
		for _, sys := range []System{CortenRW, CortenAdv} {
			rows = append(rows, flat("batch", labels("mix", "munmap-heavy", "sys", sys, "threads", 1, "batch", 64),
				map[string]float64{"speedup": 2.4, "shootdowns": 24, "groups": 24}))
		}
		return rows
	}
	thp := func() []Row {
		return []Row{
			flat("thp", labels("sys", CortenAdv, "pipeline", false), map[string]float64{"coverage": 0, "order9_rate": 0}),
			flat("thp", labels("sys", CortenAdv, "pipeline", true), map[string]float64{"coverage": 1, "order9_rate": 1}),
		}
	}
	// At checkSpec's floor, so dropping any one row is caught; the live
	// table's exact size is pinned by TestEveryFigureEmitsRows.
	specRows := func() []Row {
		var rows []Row
		for i := 0; i < 12; i++ {
			rows = append(rows, flat("fig-spec", labels("family", "rw", "model", i), map[string]float64{"clean": 1, "states": 10}))
		}
		for i := 0; i < 19; i++ {
			rows = append(rows, flat("fig-spec-mut", labels("family", "rw", "model", i, "bug", "b"), map[string]float64{"caught": 1, "states": 10}))
		}
		return rows
	}
	pressure := func() []Row {
		var rows []Row
		for _, sys := range []System{CortenRW, CortenAdv} {
			for _, ratio := range []string{"0.50", "0.90", "1.50", "3.00"} {
				reclaim := 0.0
				if ratio > "1" {
					reclaim = 18
				}
				rows = append(rows, flat("pressure", labels("sys", sys, "ratio", ratio),
					map[string]float64{"swap_outs": 60 * reclaim, "direct_rounds": reclaim, "swap_failed": 0}))
			}
		}
		return rows
	}
	set := func(r Row, metric string, s Stat) { r.Metrics[metric] = s }
	for _, tc := range []struct {
		name   string
		fig    string
		rows   func() []Row
		doctor func([]Row) []Row
		names  string // the row the error must name
	}{
		{"stale read in one repeat", "tenant", tenant, func(r []Row) []Row { set(r[0], "stale_reads", Stat{0, 0, 1}); return r }, "fig-tenant sys=corten-adv tenants=1024"},
		{"bounds escape on the baseline", "tenant", tenant, func(r []Row) []Row { set(r[1], "bounds_escapes", Stat{1, 1, 1}); return r }, "fig-tenant sys=linux tenants=1024"},
		{"teardown shootdown", "tenant", tenant, func(r []Row) []Row { set(r[0], "shootdowns", Stat{0, 0, 3}); return r }, "fig-tenant sys=corten-adv"},
		{"local fraction 0.8", "numa", numa, func(r []Row) []Row { set(r[1], "local_fraction", Stat{0.8, 0.8, 0.8}); return r }, "fig22-numa nodes=2 policy=local"},
		{"no one-node row", "numa", numa, func(r []Row) []Row { return r[1:] }, "nodes=1"},
		{"balancer idle", "numa", numa, func(r []Row) []Row { set(r[2], "numa_migrations", Stat{}); return r }, "fig22-numa-balance nodes=2"},
		{"speedup 1.2", "batch", batch, func(r []Row) []Row { set(r[1], "speedup", Stat{1.2, 1.1, 1.3}); return r }, "batch batch=64 mix=munmap-heavy sys=corten-adv threads=1"},
		{"shootdowns above groups", "batch", batch, func(r []Row) []Row { set(r[0], "shootdowns", Stat{24, 24, 25}); return r }, "sys=corten-rw"},
		{"a gated batch row missing", "batch", batch, func(r []Row) []Row { return r[:1] }, "got 1"},
		{"reclaim idle", "pressure", pressure, func(r []Row) []Row { set(r[2], "swap_outs", Stat{0, 0, 1080}); return r }, "pressure ratio=1.50 sys=corten-rw"},
		{"reclaim inside memory", "pressure", pressure, func(r []Row) []Row { set(r[5], "direct_rounds", Stat{0, 0, 1}); return r }, "pressure ratio=0.90 sys=corten-adv"},
		{"failed writeback", "pressure", pressure, func(r []Row) []Row { set(r[7], "swap_failed", Stat{0, 0, 2}); return r }, "pressure ratio=3.00 sys=corten-adv"},
		{"coverage 0.4", "thp", thp, func(r []Row) []Row { set(r[1], "coverage", Stat{0.4, 0.4, 0.4}); return r }, "thp pipeline=true sys=corten-adv"},
		{"coverage not 2x off", "thp", thp, func(r []Row) []Row { set(r[0], "coverage", Stat{0.6, 0.6, 0.6}); return r }, "thp pipeline=true sys=corten-adv"},
		{"order-9 probes fail", "thp", thp, func(r []Row) []Row { set(r[1], "order9_rate", Stat{0.5, 0.5, 0.5}); return r }, "thp pipeline=true sys=corten-adv"},
		{"unclean model", "spec", specRows, func(r []Row) []Row { set(r[3], "clean", Stat{}); return r }, "fig-spec family=rw model=3"},
		{"uncaught mutation", "spec", specRows, func(r []Row) []Row { set(r[20], "caught", Stat{}); return r }, "fig-spec-mut bug=b family=rw model=8"},
		{"a mutation dropped", "spec", specRows, func(r []Row) []Row { return append(r[:20], r[21:]...) }, "12/18"},
		{"band out of order", "13", func() []Row { return []Row{flat("fig13", labels("sys", Linux), map[string]float64{"ops_per_s": 5})} },
			func(r []Row) []Row { set(r[0], "ops_per_s", Stat{Median: 5, Min: 6, Max: 7}); return r }, "fig13 sys=linux"},
		{"no rows", "13", func() []Row { return nil }, func(r []Row) []Row { return r }, "figure 13"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := figure(t, tc.fig)
			if rows := tc.rows(); len(rows) > 0 {
				if err := f.Verify(rows); err != nil {
					t.Fatalf("undoctored rows rejected: %v", err)
				}
			}
			err := f.Verify(tc.doctor(tc.rows()))
			if err == nil || !strings.Contains(err.Error(), tc.names) {
				t.Errorf("Verify = %v, want an error naming %q", err, tc.names)
			}
		})
	}
}

// TestCountsDiffNamesTheRow feeds countDiff doctored copies of the
// newest point: each exact difference fails with its row named, and a
// banded reading may move freely. It runs no figure.
func TestCountsDiffNamesTheRow(t *testing.T) {
	all := points(t)
	point := readPoint(t, all[len(all)-1])
	// clone deep-copies the point, so a case doctors only its own rows.
	clone := func() []Row {
		out := make([]Row, len(point))
		for i, r := range point {
			out[i] = r
			out[i].Metrics = maps.Clone(r.Metrics)
		}
		return out
	}
	// first is the index of the first row of family fig carrying metric
	// with a nonzero median.
	first := func(fig, metric string) int {
		for i, r := range point {
			if r.Fig == fig && r.Metrics[metric].Median != 0 {
				return i
			}
		}
		t.Fatalf("no %s row with a nonzero %s", fig, metric)
		return 0
	}
	if d := countDiff(point, clone()); len(d) != 0 {
		t.Fatalf("the point differs from itself: %v", d)
	}
	bump := func(fig, metric string, edit func(*Stat)) func([]Row) (string, []Row) {
		return func(rows []Row) (string, []Row) {
			i := first(fig, metric)
			s := rows[i].Metrics[metric]
			edit(&s)
			rows[i].Metrics[metric] = s
			return rows[i].String(), rows
		}
	}
	for _, tc := range []struct {
		name   string
		doctor func([]Row) (string, []Row) // the row to name, the doctored run
		pass   bool
	}{
		{"swap_outs median", bump("pressure", "swap_outs", func(s *Stat) { s.Median++ }), false},
		{"only a min", bump("fig-spec", "states", func(s *Stat) { s.Min-- }), false},
		{"fig-spec-mut row deleted", func(rows []Row) (string, []Row) {
			i := first("fig-spec-mut", "caught")
			return rows[i].String(), append(rows[:i:i], rows[i+1:]...)
		}, false},
		{"extra row", func(rows []Row) (string, []Row) {
			r := flat("fig13", labels("sys", "vms/370", "op", "mmap"), map[string]float64{"ops_per_s": 1})
			return r.String(), append(rows, r)
		}, false},
		{"metric on one side", func(rows []Row) (string, []Row) {
			i := first("thp", "promotions")
			rows[i].Metrics["huge_runs"] = Stat{}
			return rows[i].String(), rows
		}, false},
		{"banded ops_per_s", bump("fig13", "ops_per_s", func(s *Stat) { s.Median, s.Max = 2*s.Max, 2*s.Max }), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name, run := tc.doctor(clone())
			diffs := countDiff(point, run)
			if tc.pass {
				if len(diffs) != 0 {
					t.Errorf("a banded change failed: %v", diffs)
				}
				return
			}
			if len(diffs) != 1 || !strings.HasPrefix(diffs[0], name+":") {
				t.Errorf("diff %q, want one difference naming %q", diffs, name)
			}
		})
	}
}

// readPoint reads a recorded trajectory point, its meta row first.
func readPoint(t *testing.T, point string) []Row {
	t.Helper()
	f, err := os.Open(point)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r Row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v in %s", point, err, sc.Text())
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no rows", point)
	}
	return rows
}

// points is every checked-in trajectory point, oldest first by its
// number (BENCH_9 before BENCH_10).
func points(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no recorded trajectory points: %v", err)
	}
	num := func(p string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err != nil {
			t.Fatalf("%s: not BENCH_<number>.json", p)
		}
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return num(paths[i]) < num(paths[j]) })
	return paths
}

// TestRecordedTrajectoryParses reads every checked-in trajectory point
// the way a later PR's diff will: every figure is present and every
// contract holds on the recorded rows. A PR records a point by adding a
// BENCH_<pr>.json, not by editing this test.
func TestRecordedTrajectoryParses(t *testing.T) {
	for _, point := range points(t) {
		t.Run(filepath.Base(point), func(t *testing.T) {
			rows := readPoint(t, point)
			if r := rows[0]; r.Fig != "meta" || r.Labels["commit"] == "" || r.Labels["host"] == "" {
				t.Errorf("first row %s is not a meta row with host and commit", r)
			}
			byFig := map[string][]Row{}
			for _, r := range rows {
				byFig[r.Fig] = append(byFig[r.Fig], r)
			}
			for _, f := range Figures {
				var rows []Row
				for fig := range wantRows[f.Name] {
					if len(byFig[fig]) == 0 {
						t.Errorf("figure %s: no %s rows recorded", f.Name, fig)
					}
					rows = append(rows, byFig[fig]...)
				}
				if err := f.Verify(rows); err != nil {
					t.Errorf("recorded rows: %v", err)
				}
			}
		})
	}
}

// countDiff compares the rows of a run with those of a recorded point,
// matched by Row.String(): a row on one side only, a different N, a
// metric on one side only, or an exact metric whose median, min or max
// differs is a difference, named by its row. Meta rows are skipped.
func countDiff(point, run []Row) []string {
	index := func(rows []Row) map[string]Row {
		m := map[string]Row{}
		for _, r := range rows {
			if r.Fig != "meta" {
				m[r.String()] = r
			}
		}
		return m
	}
	want, got := index(point), index(run)
	var diffs []string
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			diffs = append(diffs, name+": recorded, not produced")
			continue
		}
		if g.N != w.N {
			diffs = append(diffs, fmt.Sprintf("%s: N %d, recorded %d", name, g.N, w.N))
		}
		for metric, ws := range w.Metrics {
			gs, ok := g.Metrics[metric]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s: %s recorded, not produced", name, metric))
			case gs != ws && !isBanded(w, metric):
				diffs = append(diffs, fmt.Sprintf("%s: %s %+v, recorded %+v", name, metric, gs, ws))
			}
		}
		for metric := range g.Metrics {
			if _, ok := w.Metrics[metric]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: %s produced, not recorded", name, metric))
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, name+": produced, not recorded")
		}
	}
	sort.Strings(diffs)
	return diffs
}

// TestCountsMatchNewestPoint runs every figure on the grid a point is
// recorded with (scale 1, threads 1,2) and diffs its exact counts
// against the highest-numbered BENCH_<n>.json. A change that moves a
// count on purpose records a new point and says why; that is also the
// only way to rename or delete a row.
func TestCountsMatchNewestPoint(t *testing.T) {
	all := points(t)
	newest := all[len(all)-1]
	point := readPoint(t, newest)
	if scale := point[0].Labels["scale"]; point[0].Fig != "meta" || scale != "1" {
		t.Fatalf("%s: meta row %s, want a scale=1 point", newest, point[0])
	}
	var run []Row
	for _, f := range Figures {
		rows, err := f.Run(Options{Scale: 1, Threads: []int{1, 2}})
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		run = append(run, rows...)
	}
	for _, d := range countDiff(point, run) {
		t.Errorf("against %s: %s", filepath.Base(newest), d)
	}
}
