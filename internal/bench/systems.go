// Package bench is the evaluation harness: it instantiates each memory
// management system on a simulated machine, runs the paper's workloads
// against them, and returns every figure and table of §6 as []Row (see
// Figures). Absolute numbers differ from the paper (the substrate is a
// simulator, not a 384-core EPYC), but the comparisons — who wins,
// roughly by how much, where scaling collapses — are the reproduction
// target.
package bench

import (
	"fmt"
	"io"
	"runtime"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/nros"
	"cortenmm/internal/radixvm"
	"cortenmm/internal/tlb"
	"cortenmm/internal/vma"
)

// System identifies one competitor.
type System string

// The evaluated systems (§6.1) plus the §6.4 ablations.
const (
	Linux     System = "linux"
	CortenRW  System = "corten-rw"
	CortenAdv System = "corten-adv"
	RadixVM   System = "radixvm"
	NrOS      System = "nros"
	// AdvBase is corten-adv without the per-core VA allocator and
	// without lazy TLB shootdown (the adv_base ablation).
	AdvBase System = "adv-base"
	// AdvVPA adds back only the per-core VA allocator (adv_+vpa).
	AdvVPA System = "adv+vpa"
)

// AllSystems is the Figure 13/14 lineup.
var AllSystems = []System{Linux, CortenRW, CortenAdv, RadixVM, NrOS}

// Env is one benchmark environment: a fresh machine and, unless the
// workload makes its own spaces, a fresh address space on it.
type Env struct {
	Machine *cpusim.Machine
	Sys     mm.MM
}

// tlbModeFor is the shootdown protocol a system runs under: full
// CortenMM uses LATR; the baselines and the adv ablations (which isolate
// the VA allocator) keep synchronous shootdown.
func tlbModeFor(sys System) tlb.Mode {
	if sys == CortenAdv || sys == CortenRW {
		return tlb.ModeLATR
	}
	return tlb.ModeSync
}

// NewEnv builds the machine cfg describes, under sys's shootdown
// protocol, and an address space of that system on it. isa may be nil
// for x86-64.
func NewEnv(sys System, isa arch.ISA, cfg cpusim.Config) (*Env, error) {
	cfg.TLBMode = tlbModeFor(sys)
	return newEnv(cfg, func(m *cpusim.Machine) (mm.MM, error) { return NewSystem(sys, m, isa) })
}

// newEnv builds the machine and opens the space on it; a nil open
// leaves Sys nil for workloads that create and destroy their own.
func newEnv(cfg cpusim.Config, open func(*cpusim.Machine) (mm.MM, error)) (*Env, error) {
	e := &Env{Machine: cpusim.New(cfg)}
	if open != nil {
		var err error
		if e.Sys, err = open(e.Machine); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Close is the round epilogue: destroy the space, then the machine's
// own teardown check (every deferred free run, physical memory audits
// clean, no page-table or anonymous frame left).
func (e *Env) Close() error {
	if e.Sys != nil {
		e.Sys.Destroy(0)
	}
	return e.Machine.CheckClean()
}

// machine is the standard two-node machine of the figures.
func machine(cores, frames int) cpusim.Config {
	return cpusim.Config{Cores: cores, Frames: frames, NUMANodes: 2}
}

// NewSystem creates an address space of the given flavour on m.
func NewSystem(sys System, m *cpusim.Machine, isa arch.ISA) (mm.MM, error) {
	switch sys {
	case Linux:
		return vma.New(m, isa)
	case CortenRW:
		return core.New(core.Options{Machine: m, ISA: isa, Protocol: core.ProtocolRW, PerCoreVA: true})
	case CortenAdv:
		return core.New(core.Options{Machine: m, ISA: isa, Protocol: core.ProtocolAdv, PerCoreVA: true})
	case AdvBase:
		return core.New(core.Options{Machine: m, ISA: isa, Protocol: core.ProtocolAdv, PerCoreVA: false})
	case AdvVPA:
		return core.New(core.Options{Machine: m, ISA: isa, Protocol: core.ProtocolAdv, PerCoreVA: true})
	case RadixVM:
		return radixvm.New(m, isa)
	case NrOS:
		return nros.New(m, isa)
	}
	return nil, fmt.Errorf("bench: unknown system %q", sys)
}

// Options tunes a harness run.
type Options struct {
	// Threads is the core-count sweep (default the powers of two up to
	// GOMAXPROCS, capped at 16).
	Threads []int
	// Scale multiplies iteration counts (1.0 = quick, higher = more
	// stable numbers).
	Scale float64
	// W receives the rows Figure.Emit writes, one JSON object per line.
	W io.Writer
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Threads) == 0 {
		max := runtime.GOMAXPROCS(0)
		if max > 16 {
			max = 16
		}
		for t := 1; t <= max; t *= 2 {
			o.Threads = append(o.Threads, t)
		}
	}
	if o.W == nil {
		o.W = io.Discard
	}
	return o
}

func (o Options) iters(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

func maxThreads(threads []int) int {
	max := 1
	for _, t := range threads {
		if t > max {
			max = t
		}
	}
	return max
}

// framesFor sizes simulated physical memory for a page demand with
// headroom, clamped to sane bounds.
func framesFor(pages int) int {
	f := 1 << 14
	for f < pages*2 {
		f <<= 1
	}
	if f > 1<<21 {
		f = 1 << 21
	}
	return f
}
