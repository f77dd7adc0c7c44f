package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs both passes of every workload at 1% of the unit counts:
// every named metric must be there with its unit, every result must check
// out (which includes the round-to-round equality of the one-thread
// counter deltas), and the span file must hold a well-formed tree.
func TestSmoke(t *testing.T) {
	calibSteps = 1 << 8 // the real kernel is far too slow under -race
	minRounds = 3
	calibInit()
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		cfg := config{seed: 3, seconds: 0.01, scale: 0.01, traceOut: filepath.Join(dir, w.name+".jsonl")}

		res, err := endToEndPass(w, cfg)
		if err != nil {
			t.Fatalf("%s end-to-end pass: %v", w.name, err)
		}
		checkResult(t, w.name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}

		res, err = layerPass(w, cfg)
		if err != nil {
			t.Fatalf("%s per-layer pass: %v", w.name, err)
		}
		checkResult(t, w.name, res, perLayer)
		if w.threads == 1 && res.Metrics["host.unit_self_share"].Value > 0.10 {
			t.Errorf("%s: %.0f%% of unit time is in no named span, want at most 10%%", w.name, 100*res.Metrics["host.unit_self_share"].Value)
		}
		checkSpanFile(t, w.name, cfg.traceOut)
	}
}

func checkResult(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, res.problems)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value < 0 {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %q and a value >= 0", name, d.Name, m, ok, d.Unit)
		}
	}
}

// checkSpanFile reads the spans back and checks the tree: children lie
// inside their parent and sum to no more than it, and no self time is
// negative.
func checkSpanFile(t *testing.T, name, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byName := map[string]step{}
	for s, n := range stepNames {
		byName[n] = step(s)
	}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			ID, Parent, Unit uint32
			Name             string
			Start            int64 `json:"start_ns"`
			End              int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: span line %q: %v", name, sc.Text(), err)
		}
		st, ok := byName[rec.Name]
		if !ok {
			t.Fatalf("%s: span %d has unknown name %q", name, rec.ID, rec.Name)
		}
		spans = append(spans, span{ID: rec.ID, Parent: rec.Parent, Unit: rec.Unit, Name: st, Start: rec.Start, End: rec.End})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans written", name)
	}
	self, problems := selfTimes(spans)
	for _, p := range problems {
		t.Errorf("%s: %s", name, p)
	}
	for i, s := range self {
		if s < 0 {
			t.Errorf("%s: span %d has self time %d", name, spans[i].ID, s)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks the tables against the limits BENCHMARK.json must
// keep, and the file at the repo root against the tables.
func TestManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(perLayer))
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) || d.Better != "lower" && d.Better != "higher" {
			t.Errorf("per-layer metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `-manifest`; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}
