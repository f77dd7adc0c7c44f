package workload

import (
	"fmt"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// LMbenchOp enumerates the Figure-20 process benchmarks, the operations
// that must enumerate the address space — CortenMM's worst case (§6.2).
type LMbenchOp uint8

const (
	// LMFork: a process repeatedly forks a child that exits immediately.
	LMFork LMbenchOp = iota
	// LMForkExec: the child execves another program (its address space
	// is torn down and a fresh one is populated).
	LMForkExec
	// LMShell: fork + exec of a shell that does a little work (echo).
	LMShell
)

// String names the op as LMbench does.
func (o LMbenchOp) String() string {
	switch o {
	case LMFork:
		return "fork"
	case LMForkExec:
		return "fork+exec"
	case LMShell:
		return "shell"
	}
	return fmt.Sprintf("lmbench(%d)", uint8(o))
}

// AllLMbenchOps lists the three Figure-20 benchmarks.
var AllLMbenchOps = []LMbenchOp{LMFork, LMForkExec, LMShell}

// LMbenchResult is one latency measurement (lower is better).
type LMbenchResult struct {
	Op         LMbenchOp
	Iters      int
	PerOp      time.Duration
	ParentSize int // resident pages in the forking parent
}

// populateParent builds a "dummy process" image: residentPages mapped
// and touched across several regions, as a real process would have.
func populateParent(sys mm.MM, residentPages int) error {
	perRegion := 64
	for mapped := 0; mapped < residentPages; mapped += perRegion {
		va, err := sys.Mmap(0, uint64(perRegion)*arch.PageSize, arch.PermRW, 0)
		if err != nil {
			return err
		}
		for p := 0; p < perRegion; p++ {
			if err := sys.Touch(0, va+arch.Vaddr(p*arch.PageSize), pt.AccessWrite); err != nil {
				return err
			}
		}
	}
	return nil
}

// newChildImage populates a freshly exec'd process: a modest text+data
// footprint faulted in on startup.
func execImage(sys mm.MM, pages int) error {
	va, err := sys.Mmap(0, uint64(pages)*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		return err
	}
	for p := 0; p < pages; p++ {
		if err := sys.Touch(0, va+arch.Vaddr(p*arch.PageSize), pt.AccessWrite); err != nil {
			return err
		}
	}
	return nil
}

// RunLMbench measures one Figure-20 benchmark: single-threaded
// fork/exec/shell latency over a parent with residentPages pages.
// newSpace creates the exec target's fresh address space.
func RunLMbench(machine *cpusim.Machine, sys mm.MM, newSpace func() (mm.MM, error),
	op LMbenchOp, residentPages, iters int) (LMbenchResult, error) {

	forker, ok := sys.(mm.Forker)
	if !ok {
		return LMbenchResult{}, fmt.Errorf("fork: %w", mm.ErrNotSupported)
	}
	if err := populateParent(sys, residentPages); err != nil {
		return LMbenchResult{}, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		child, err := forker.Fork(0)
		if err != nil {
			return LMbenchResult{}, err
		}
		switch op {
		case LMFork:
			// Child exits immediately: touch a page (COW on the stack),
			// then tear down.
			_ = child.Touch(0, cpusim.UserLo, pt.AccessRead)
			child.Destroy(0)
		case LMForkExec, LMShell:
			// exec: the forked image is discarded and a fresh one built.
			child.Destroy(0)
			fresh, err := newSpace()
			if err != nil {
				return LMbenchResult{}, err
			}
			if err := execImage(fresh, 64); err != nil {
				fresh.Destroy(0)
				return LMbenchResult{}, err
			}
			if op == LMShell {
				// sh -c echo: a bit of user work plus a few more faults.
				sinkU64.Store(userWork(5000))
				if err := execImage(fresh, 32); err != nil {
					fresh.Destroy(0)
					return LMbenchResult{}, err
				}
			}
			fresh.Destroy(0)
		}
	}
	elapsed := time.Since(start)
	return LMbenchResult{
		Op:         op,
		Iters:      iters,
		PerOp:      elapsed / time.Duration(iters),
		ParentSize: residentPages,
	}, nil
}
