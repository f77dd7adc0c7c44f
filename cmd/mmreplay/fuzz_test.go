package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"cortenmm/internal/bench"
)

// FuzzTrace feeds arbitrary trace text to the replayer on all five
// systems, each judged op by op against the flat model (spec.Flat) and
// checked clean after teardown. It fails on any disagreement with the
// model, any teardown finding and any panic; a trace error says nothing
// about the system. The seed corpus runs as part of the normal test
// suite.
func FuzzTrace(f *testing.F) {
	f.Add(demoTrace)
	f.Add("mmap a 4096\nstore a 0 300\n")  // byte overflow
	f.Add("mmap a 0\n")                    // zero size: mm.ErrBadRange
	f.Add("thread 99\nmmap a 4096\n")      // out-of-range core: every system refuses it, typed
	f.Add("mmap a 18446744073709551615\n") // page rounding wraps: cpusim.ErrVAExhausted
	// A refused mmap spends no VA, so b and c do not alias.
	f.Add("mmap a 0\nmmap b 4096\nmmap c 4096\nstore b 0 1\nload c 0\n")
	f.Add("touch a -1\nmunmap a extra words here\n")
	f.Add("mmap x 8192\nmmap x 8192\nmunmap x\nmunmap x\n")
	// A grow of a hole is mm.ErrSegv and maps nothing.
	f.Add("mmap a 8192\nmunmap a\nmremap a 16384\n")
	// Loads, stores and touches of a hole fault. Mprotect and madvise of
	// a hole return nil on every system, where Linux returns ENOMEM; the
	// model follows the systems, and ROADMAP direction 9 (one error
	// vocabulary) decides it.
	f.Add("mmap a 8192\nmunmap a\nload a 0\nstore a 1 5\ntouch a 0 x\nprotect a r\nmadvise a\n")
	f.Add("mmap a 4096\nprotect a r\nstore a 0 1\n")
	f.Add("mmap a 8192 rx\ntouch a 1 x\ntouch a 0 w\nprotect a rw\ntouch a 1 x\n")
	f.Add("mmap a 4096\nstore a 0 9\nmadvise a\nload a 0\n")     // reads 0
	f.Add("mmap a 8192\nstore a 1 9\nswapout a\nload a 1\n")     // the same byte
	f.Add("mmap a 8192\nstore a 1 9\nmremap a 4096\nload a 1\n") // a shrink unmaps the tail
	f.Fuzz(func(t *testing.T, trace string) {
		for _, sys := range bench.AllSystems {
			if _, err := run(string(sys), 2, strings.NewReader(trace), false, io.Discard); err != nil && !errors.Is(err, errTrace) {
				t.Errorf("%s: %v", sys, err)
			}
		}
	})
}
