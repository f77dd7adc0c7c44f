package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cortenmm/internal/mm"
)

func TestDemoTraceAllSystems(t *testing.T) {
	for _, sys := range []string{"corten-adv", "corten-rw"} {
		var out bytes.Buffer
		if err := run(sys, 2, strings.NewReader(demoTrace), false, &out); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !strings.Contains(out.String(), "faults=") {
			t.Errorf("%s: no stats printed: %s", sys, out.String())
		}
	}
	// Linux runs the demo minus the ops it does not carry.
	linuxTrace := ""
	for _, line := range strings.Split(demoTrace, "\n") {
		if strings.HasPrefix(line, "swapout") || strings.HasPrefix(line, "mremap") {
			continue
		}
		linuxTrace += line + "\n"
	}
	var out bytes.Buffer
	if err := run("linux", 2, strings.NewReader(linuxTrace), false, &out); err != nil {
		t.Fatalf("linux: %v", err)
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
		{"swap unsupported", "mmap a 4096\nswapout a\n"},
		{"mremap unsupported", "mmap a 4096\nmremap a 8192\n"},
	}
	for _, tc := range cases {
		sys := "corten-adv"
		if strings.HasSuffix(tc.name, "unsupported") {
			sys = "linux"
		}
		err := run(sys, 1, strings.NewReader(tc.trace), false, &bytes.Buffer{})
		switch {
		case err == nil:
			t.Errorf("%s: no error", tc.name)
		case strings.HasSuffix(tc.name, "unsupported") && !errors.Is(err, mm.ErrNotSupported):
			t.Errorf("%s: %v, want mm.ErrNotSupported", tc.name, err)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	trace := "# header\n\n  # indented comment\nmmap a 4096\nstore a 0 1\nload a 0\nmunmap a\n"
	if err := run("corten-adv", 1, strings.NewReader(trace), true, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestPopulatedBulkTrace: the bulk path end to end on every system. On
// CortenMM an 8-MiB populated mmap is resident at once without a fault
// (the baselines populate by faulting), so reading it before and after
// the protect takes none either, and the counters say so.
func TestPopulatedBulkTrace(t *testing.T) {
	trace := "mmap big 8388608 rw populate\nload big 0\nload big 2047\nprotect big r\nload big 5\nmunmap big\n"
	for _, sys := range []string{"corten-adv", "corten-rw", "linux", "radixvm", "nros"} {
		var out bytes.Buffer
		if err := run(sys, 2, strings.NewReader(trace), false, &out); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if strings.HasPrefix(sys, "corten") && !strings.Contains(out.String(), "mmap=1 munmap=1 mprotect=1 faults=0 ") {
			t.Errorf("%s: %s", sys, out.String())
		}
	}
}
