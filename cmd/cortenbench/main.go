// Command cortenbench regenerates the figures and tables of the
// CortenMM evaluation (§6) on the simulated machine. Every measured
// cell is one JSON object per line on stdout (a bench.Row: figure,
// labels, repeats, median/min/max per metric), led by a "meta" row
// naming the host and commit; titles go to stderr. Each figure's
// contract is checked on the rows just produced, and a violation exits
// 1 naming the row. BENCH_<pr>.json is this output checked in, on a
// fixed grid; internal/bench's TestCountsMatchNewestPoint reruns that
// grid and requires every exact count to equal the highest-numbered
// point's:
//
//	go run -buildvcs=true ./cmd/cortenbench -threads 1,2 > BENCH_<pr>.json
//
// Absolute numbers depend on the host; the comparisons between systems
// are the reproduction target. See EXPERIMENTS.md for the side-by-side
// with the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"cortenmm/internal/bench"
)

// metaRow describes the run: the host, the toolchain, the scale and
// the commit the binary was built from (when the build recorded one).
func metaRow(scale float64) bench.Row {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return bench.Row{Fig: "meta", Labels: map[string]string{
		"host": host, "os_arch": runtime.GOOS + "/" + runtime.GOARCH, "cpus": strconv.Itoa(runtime.NumCPU()),
		"go": runtime.Version(), "commit": commit, "scale": fmt.Sprint(scale),
	}}
}

func main() {
	var names []string
	for _, f := range bench.Figures {
		names = append(names, f.Name)
	}
	fig := flag.String("fig", "all", "figure/table to regenerate: all, "+strings.Join(names, ", "))
	threads := flag.String("threads", "", "comma-separated thread sweep (default 1,2,...,GOMAXPROCS-based)")
	scale := flag.Float64("scale", 1.0, "iteration-count multiplier (higher = slower, more stable)")
	flag.Parse()

	o := bench.Options{Scale: *scale, W: os.Stdout}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "cortenbench: bad -threads %q\n", *threads)
				os.Exit(2)
			}
			o.Threads = append(o.Threads, n)
		}
	}

	ran := false
	for _, f := range bench.Figures {
		if *fig != "all" && *fig != f.Name {
			continue
		}
		if !ran {
			if err := json.NewEncoder(os.Stdout).Encode(metaRow(*scale)); err != nil {
				fmt.Fprintln(os.Stderr, "cortenbench:", err)
				os.Exit(1)
			}
		}
		ran = true
		fmt.Fprintf(os.Stderr, "# %s\n", f.Title)
		if err := f.Emit(o); err != nil {
			fmt.Fprintf(os.Stderr, "cortenbench: figure %s: %v\n", f.Name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "cortenbench: unknown figure %q (valid: all, %s)\n", *fig, strings.Join(names, ", "))
		os.Exit(2)
	}
}
