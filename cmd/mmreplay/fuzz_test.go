package main

import (
	"bytes"
	"strings"
	"testing"

	"cortenmm/internal/bench"
)

// FuzzTrace feeds arbitrary trace text to the replayer on all five
// systems: each must reject or execute every input without panicking,
// and never corrupt the address space (the run itself re-checks
// invariants on Destroy). The seed corpus runs as part of the normal
// test suite.
func FuzzTrace(f *testing.F) {
	f.Add(demoTrace)
	f.Add("mmap a 4096\nstore a 0 300\n") // byte overflow
	f.Add("mmap a 0\n")                   // zero size
	f.Add("thread 99\nmmap a 4096\n")     // out-of-range core: every system refuses it, typed
	f.Add("mmap a 18446744073709551615\n")
	f.Add("touch a -1\nmunmap a extra words here\n")
	f.Add("mmap x 8192\nmmap x 8192\nmunmap x\nmunmap x\n")
	f.Fuzz(func(t *testing.T, trace string) {
		for _, sys := range bench.AllSystems {
			_ = run(string(sys), 2, strings.NewReader(trace), false, &bytes.Buffer{})
		}
	})
}
