// Command benchmark measures the flagship CortenMM configuration
// (corten-adv: ProtocolAdv + PerCoreVA + LATR, 2 simulated cores, 2 NUMA
// nodes, 64 Ki frames) end to end and layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload anon_churn --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics of one workload as the last line of
// standard output; --trace 1 prints its per-layer metrics instead.
// Without --workload every workload runs, both passes, and the output is
// one JSON document keyed by workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	name := flag.String("workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated op stream")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one pass over one workload measures")
	trace := flag.String("trace", "both", "0: end-to-end pass, 1: per-layer pass, both: one after the other")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every round's unit count (smoke runs use 0.01)")
	traceDir := flag.String("trace-dir", "", "directory the traced pass writes <workload>.spans.jsonl to (none if empty)")
	agree := flag.Bool("agree", false, "run the end-to-end pass twice and compare the two sets against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		os.Stdout.Write(out)
		return 0
	}
	list := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		list = []workload{*w}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" || cfg.seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0, 1 or both; -seconds and -scale are positive")
		return 2
	}
	calibInit()
	if *agree {
		return agreement(list, cfg)
	}

	// One workload and one pass: the contract's single result line.
	if len(list) == 1 && *trace != "both" {
		res, err := pass(&list[0], cfg, *trace, *traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return emit(res, res)
	}
	doc := map[string]map[string]*result{}
	ok := true
	for i := range list {
		w := &list[i]
		doc[w.name] = map[string]*result{}
		for _, tr := range []string{"0", "1"} {
			if *trace != "both" && *trace != tr {
				continue
			}
			res, err := pass(w, cfg, tr, *traceDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			report(res)
			ok = ok && res.Correct
			doc[w.name][map[string]string{"0": "end_to_end", "1": "per_layer"}[tr]] = res
		}
	}
	if code := emit(doc, nil); code != 0 {
		return code
	}
	if !ok {
		return 1
	}
	return 0
}

func pass(w *workload, cfg config, trace, traceDir string) (*result, error) {
	if trace == "0" {
		return endToEndPass(w, cfg)
	}
	if traceDir != "" {
		cfg.traceOut = filepath.Join(traceDir, w.name+".spans.jsonl")
	}
	return layerPass(w, cfg)
}

// report prints what went wrong in a pass to standard error.
func report(res *result) {
	for _, p := range res.problems[:min(len(res.problems), 20)] {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
	}
}

// emit prints doc as one line of JSON. If res is given, its failures are
// reported and decide the exit code.
func emit(doc any, res *result) int {
	out, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(out))
	if res != nil {
		report(res)
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// agreement runs the end-to-end pass over the workloads twice, back to
// back, and prints for every workload and metric both values, their
// relative difference and whether it is within the metric's bound.
func agreement(list []workload, cfg config) int {
	sets := [2]map[string]*result{{}, {}}
	for s := range sets {
		for i := range list {
			res, err := endToEndPass(&list[i], cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			report(res)
			sets[s][list[i].name] = res
		}
	}
	code := 0
	fmt.Printf("%-16s %-26s %14s %14s %8s %6s  %s\n", "workload", "metric", "set A", "set B", "diff", "bound", "")
	for _, w := range list {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			// How much worse B is than A, as a share of A.
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > d.Bound || !a.Correct || !b.Correct {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("%-16s %-26s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n", w.name, d.Name, x, y, 100*(y-x)/x, 100*d.Bound, verdict)
		}
	}
	return code
}
