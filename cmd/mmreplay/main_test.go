package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cortenmm/internal/bench"
	"cortenmm/internal/mm"
)

func TestDemoTraceAllSystems(t *testing.T) {
	for _, sys := range bench.AllSystems {
		var out bytes.Buffer
		if _, err := run(string(sys), 2, strings.NewReader(demoTrace), false, &out); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !strings.Contains(out.String(), "faults=") {
			t.Errorf("%s: no stats printed: %s", sys, out.String())
		}
	}
}

func TestTraceErrors(t *testing.T) {
	cases := []struct {
		name, trace string
	}{
		{"unknown op", "frobnicate x 1\n"},
		{"unknown region", "munmap nothere\n"},
		{"bad perm", "mmap a 4096 wx\n"},
		{"bad mmap flag", "mmap a 4096 rw prefault\n"},
		{"offset out of range", "mmap a 4096\ntouch a 99\n"},
	}
	for _, tc := range cases {
		if _, err := run("corten-adv", 1, strings.NewReader(tc.trace), false, &bytes.Buffer{}); !errors.Is(err, errTrace) {
			t.Errorf("%s: %v, want a trace error", tc.name, err)
		}
	}
	// An op outside the system's method set is no error: it is skipped
	// on the system and on the model, observed as mm.ErrNotSupported,
	// and the replay goes on.
	for name, trace := range map[string]string{
		"swap unsupported":   "mmap a 4096\nswapout a\nload a 0\n",
		"mremap unsupported": "mmap a 4096\nmremap a 8192\nload a 0\n",
	} {
		log, err := run("linux", 1, strings.NewReader(trace), false, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(log) < 3 || log[1].line != 2 || log[1].class != mm.ErrNotSupported || log[2].class != nil {
			t.Errorf("%s: observed %+v, want line 2 skipped as mm.ErrNotSupported and line 3 run", name, log)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	trace := "# header\n\n  # indented comment\nmmap a 4096\nstore a 0 1\nload a 0\nmunmap a\n"
	if _, err := run("corten-adv", 1, strings.NewReader(trace), true, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestPopulatedBulkTrace: the bulk path end to end on every system. On
// CortenMM an 8-MiB populated mmap is resident at once without a fault
// (the baselines populate by faulting), so reading it before and after
// the protect takes none either, and the counters say so.
func TestPopulatedBulkTrace(t *testing.T) {
	trace := "mmap big 8388608 rw populate\nload big 0\nload big 2047\nprotect big r\nload big 5\nmunmap big\n"
	for _, sys := range bench.AllSystems {
		var out bytes.Buffer
		if _, err := run(string(sys), 2, strings.NewReader(trace), false, &out); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if strings.HasPrefix(string(sys), "corten") && !strings.Contains(out.String(), "mmap=1 munmap=1 mprotect=1 faults=0 ") {
			t.Errorf("%s: %s", sys, out.String())
		}
	}
}
