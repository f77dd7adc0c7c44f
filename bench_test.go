// Benchmarks regenerating every figure and table of the CortenMM
// evaluation (§6). Each sub-benchmark runs one complete workload
// configuration per iteration and reports the figure's headline metric
// (ops/s, jobs/s, µs/op, or bytes) as the median of the measured
// bench.Row. cmd/cortenbench writes the same rows as JSON lines.
package cortenmm_test

import (
	"fmt"
	"testing"

	"cortenmm"
	"cortenmm/internal/bench"
	"cortenmm/internal/spec"
	"cortenmm/internal/workload"
)

// benchThreads is the thread sweep used by the multicore benchmarks.
var benchThreads = []int{1, 4}

// report publishes the median of each named metric of a measured row.
func report(b *testing.B, r bench.Row, metricUnit ...string) {
	b.Helper()
	for i := 0; i+1 < len(metricUnit); i += 2 {
		b.ReportMetric(r.Metrics[metricUnit[i]].Median, metricUnit[i+1])
	}
}

// reportRows publishes one metric of every row of a figure run, under a
// unit named by the row's distinguishing label values.
func reportRows(b *testing.B, run func(bench.Options) ([]bench.Row, error), metric, unit string, by ...string) {
	b.Helper()
	var rows []bench.Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = run(bench.Options{Threads: []int{4}, Scale: 1}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := ""
		for _, l := range by {
			if v := r.Labels[l]; v != "" {
				name += v + "-"
			}
		}
		b.ReportMetric(r.Metrics[metric].Median, name+unit)
	}
}

func microBench(b *testing.B, sys bench.System, isa cortenmm.ISA, op workload.MicroOp, cont workload.Contention, threads int) {
	b.Helper()
	var last bench.Row
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = bench.Micro(sys, isa, op, cont, threads, 300); err != nil {
			b.Fatal(err)
		}
	}
	report(b, last, "ops_per_s", "mmops/s")
}

// BenchmarkFig1 is the teaser: mmap-PF and unmap scalability.
func BenchmarkFig1(b *testing.B) {
	for _, op := range []workload.MicroOp{workload.OpMmapPF, workload.OpUnmap} {
		for _, threads := range benchThreads {
			for _, sys := range []bench.System{bench.Linux, bench.RadixVM, bench.NrOS, bench.CortenAdv} {
				b.Run(fmt.Sprintf("%s/t%d/%s", op, threads, sys), func(b *testing.B) {
					microBench(b, sys, nil, op, workload.Low, threads)
				})
			}
		}
	}
}

// BenchmarkFig13 is the single-threaded microbenchmark grid.
func BenchmarkFig13(b *testing.B) {
	for _, op := range workload.AllMicroOps {
		for _, sys := range bench.AllSystems {
			if sys == bench.NrOS && op != workload.OpMmapPF && op != workload.OpUnmap {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", op, sys), func(b *testing.B) {
				microBench(b, sys, nil, op, workload.Low, 1)
			})
		}
	}
}

// BenchmarkFig14 is the multithreaded grid with both contention levels.
func BenchmarkFig14(b *testing.B) {
	for _, cont := range []workload.Contention{workload.Low, workload.High} {
		for _, op := range workload.AllMicroOps {
			for _, sys := range []bench.System{bench.Linux, bench.CortenRW, bench.CortenAdv} {
				b.Run(fmt.Sprintf("%s/%s/%s/t4", op, cont, sys), func(b *testing.B) {
					microBench(b, sys, nil, op, cont, 4)
				})
			}
		}
	}
}

func appBench(b *testing.B, sys bench.System, app, alloc string, threads int, metricUnit ...string) {
	b.Helper()
	var last bench.Row
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = bench.App(sys, app, alloc, threads, bench.Options{Scale: 1}); err != nil {
			b.Fatal(err)
		}
	}
	report(b, last, metricUnit...)
}

// BenchmarkFig15 is the single-threaded real-world comparison.
func BenchmarkFig15(b *testing.B) {
	for _, app := range []string{"dedup", "psearchy", "metis", "swaptions"} {
		for _, sys := range []bench.System{bench.Linux, bench.CortenRW, bench.CortenAdv} {
			b.Run(fmt.Sprintf("%s/%s", app, sys), func(b *testing.B) {
				appBench(b, sys, app, "ptmalloc", 1, "ops_per_s", "jobs/s", "kernel_frac", "kernel-frac")
			})
		}
	}
}

// BenchmarkFig16 is JVM thread creation and metis with the ablations.
func BenchmarkFig16(b *testing.B) {
	systems := []bench.System{bench.Linux, bench.CortenRW, bench.AdvBase, bench.AdvVPA, bench.CortenAdv}
	for _, app := range []string{"jvm", "metis"} {
		for _, threads := range benchThreads {
			for _, sys := range systems {
				b.Run(fmt.Sprintf("%s/t%d/%s", app, threads, sys), func(b *testing.B) {
					appBench(b, sys, app, "", threads, "ops_per_s", "jobs/s", "kernel_frac", "kernel-frac")
				})
			}
		}
	}
}

// BenchmarkFig17 is dedup/psearchy under both allocators.
func BenchmarkFig17(b *testing.B) {
	for _, app := range []string{"dedup", "psearchy"} {
		for _, alloc := range []string{"ptmalloc", "tcmalloc"} {
			for _, sys := range []bench.System{bench.Linux, bench.CortenAdv} {
				b.Run(fmt.Sprintf("%s/%s/t4/%s", app, alloc, sys), func(b *testing.B) {
					appBench(b, sys, app, alloc, 4, "ops_per_s", "jobs/s", "kernel_frac", "kernel-frac")
				})
			}
		}
	}
}

// BenchmarkFig18 reports allocator memory footprints.
func BenchmarkFig18(b *testing.B) {
	for _, app := range []string{"dedup", "psearchy"} {
		for _, alloc := range []string{"ptmalloc", "tcmalloc"} {
			b.Run(fmt.Sprintf("%s/%s", app, alloc), func(b *testing.B) {
				appBench(b, bench.Linux, app, alloc, 4, "mapped_bytes", "B")
			})
		}
	}
}

// BenchmarkFig19 is the RISC-V portability run.
func BenchmarkFig19(b *testing.B) {
	isa := cortenmm.RISCV()
	for _, op := range workload.AllMicroOps {
		for _, sys := range []bench.System{bench.Linux, bench.CortenAdv} {
			b.Run(fmt.Sprintf("riscv/%s/%s", op, sys), func(b *testing.B) {
				microBench(b, sys, isa, op, workload.Low, 1)
			})
		}
	}
}

// BenchmarkFig20 is the LMbench fork suite.
func BenchmarkFig20(b *testing.B) {
	reportRows(b, bench.Fig20, "us_per_op", "us/op", "op", "sys")
}

// BenchmarkFig21 is the PARSEC-other normalized run.
func BenchmarkFig21(b *testing.B) {
	for _, app := range []string{"blackscholes", "swaptions", "fluidanimate", "canneal"} {
		for _, sys := range []bench.System{bench.Linux, bench.CortenAdv} {
			b.Run(fmt.Sprintf("%s/%s", app, sys), func(b *testing.B) {
				appBench(b, sys, app, "", 4, "ops_per_s", "jobs/s", "kernel_frac", "kernel-frac")
			})
		}
	}
}

// BenchmarkFig22 reports the memory-overhead percentages under metis.
func BenchmarkFig22(b *testing.B) {
	reportRows(b, bench.Fig22, "overhead_pct", "ovh%", "sys")
}

// BenchmarkTable4 measures the model checker (the verification-effort
// analog: states and transitions checked per second) on the spec table's
// three-core Figure-7 row: an unmapper racing two lockers.
func BenchmarkTable4(b *testing.B) {
	c, ok := spec.Find("adv", "three", "")
	if !ok {
		b.Fatal("no adv/three row in the spec table")
	}
	var states, transitions int
	for i := 0; i < b.N; i++ {
		res, err := c.Verify()
		if err != nil {
			b.Fatal(err)
		}
		states, transitions = res.States, res.Transitions
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(transitions), "transitions")
}

// BenchmarkAblations quantifies the design choices DESIGN.md calls out:
// rw vs adv protocol, covering-page vs root locking, and the three
// shootdown protocols.
func BenchmarkAblations(b *testing.B) {
	reportRows(b, bench.Ablations, "ops_per_s", "mmops/s", "protocol", "lock", "tlb")
}
