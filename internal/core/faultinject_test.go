package core

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// faultSeed lets CI sweep the same matrix under different deterministic
// seeds (FAULT_SEED=n go test -run TestFaultInjectionSweep ...).
func faultSeed() uint64 {
	if s := os.Getenv("FAULT_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v != 0 {
			return v
		}
	}
	return 1
}

// faultOp is one workload in the sweep. setup runs before the site is
// armed (it must not fail); op runs armed and may fail; a failed op is
// retried once disarmed and must then succeed.
type faultOp struct {
	name  string
	swap  bool // needs a swap device
	setup func(t *testing.T, a *AddrSpace) func() error
}

var faultOps = []faultOp{
	{
		name: "mmap-populate",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			return func() error {
				_, err := a.Mmap(0, arch.SpanBytes(2), arch.PermRW, mm.FlagPopulate)
				return err
			}
		},
	},
	{
		name: "fork",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			va, err := a.Mmap(0, 16*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
					t.Fatal(err)
				}
			}
			return func() error {
				child, err := a.Fork(0)
				if err == nil {
					child.(*AddrSpace).Destroy(0)
				}
				return err
			}
		},
	},
	{
		name: "collapse",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			span := arch.SpanBytes(2)
			base := arch.Vaddr(span)
			if err := a.MmapFixed(0, base, span, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			for off := uint64(0); off < span; off += arch.PageSize {
				if err := a.Store(0, base+arch.Vaddr(off), byte(off/arch.PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			return func() error { return a.CollapseHuge(0, base) }
		},
	},
	{
		name: "munmap",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			va, err := a.Mmap(0, 16*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { return a.Munmap(0, va, 16*arch.PageSize) }
		},
	},
	{
		name: "batch",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			return func() error {
				// One coalesced batch: map+populate a region and unmap it
				// again. Any injected failure must surface through a CQE
				// and leave nothing behind (the failed mmap unwinds, the
				// ring VA is recycled post-commit).
				b := a.NewBatch(0)
				va, err := b.Mmap(16*arch.PageSize, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					return err
				}
				if err := b.Munmap(va, 16*arch.PageSize); err != nil {
					return err
				}
				for _, cqe := range b.Submit() {
					if cqe.Err != nil {
						return cqe.Err
					}
				}
				return nil
			}
		},
	},
	{
		name: "migrate",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			daemonOf(a.m)
			va, err := a.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, va, 42); err != nil {
				t.Fatal(err)
			}
			return func() error {
				// Resolve the frame currently backing va each attempt: a
				// successful migration moves the page, so the previous
				// source PFN is stale (freed) by the next call.
				pte, _, ok := a.tree.Walk(va)
				if !ok {
					t.Fatal("migrate target not mapped")
				}
				if err := a.m.Phys.MigrateFrame(0, a.isa.PFNOf(pte), 0); err != nil {
					return err
				}
				if b, lerr := a.Load(0, va); lerr != nil || b != 42 {
					t.Fatalf("data lost across migration: %d, %v", b, lerr)
				}
				return nil
			}
		},
	},
	{
		name: "mremap",
		setup: func(t *testing.T, a *AddrSpace) func() error {
			const pages = 8
			va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x60+i)); err != nil {
					t.Fatal(err)
				}
			}
			// Grown across 2-MiB boundaries, so the move needs PT pages.
			return func() error {
				nva, err := a.Mremap(0, va, pages*arch.PageSize, arch.SpanBytes(2)*2)
				at := va // a failed grow leaves the mapping where it was
				if err == nil {
					at = nva
				}
				for i := 0; i < pages; i++ {
					if b, lerr := a.Load(0, at+arch.Vaddr(i*arch.PageSize)); lerr != nil || b != byte(0x60+i) {
						t.Fatalf("mremap (err %v): page %d at %#x reads %#x, %v", err, i, at, b, lerr)
					}
				}
				return err
			}
		},
	},
	{
		name: "reclaim",
		swap: true,
		setup: func(t *testing.T, a *AddrSpace) func() error {
			va, err := a.Mmap(0, 32*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			// Priming pass clears accessed bits so the armed pass
			// actually reaches the swap device (second-chance policy).
			if _, err := a.ReclaimRange(0, va, 32*arch.PageSize, 32); err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := a.ReclaimRange(0, va, 32*arch.PageSize, 32)
				return err
			}
		},
	},
}

// TestFaultInjectionSweep arms every fault site against every workload,
// under both protocols, and demands three things of each combination:
// a triggered Fail site surfaces as an ErrOutOfMemory-class error (an
// armed Delay point must be harmless), the unwind leaves the frame table
// audit clean with no leaked frames, and a disarmed retry succeeds.
func TestFaultInjectionSweep(t *testing.T) {
	defer fault.DisarmAll()
	seed := faultSeed()
	for _, p := range protocols {
		for _, site := range fault.Sites() {
			for _, op := range faultOps {
				t.Run(p.String()+"/"+site.Name()+"/"+op.name, func(t *testing.T) {
					defer fault.DisarmAll()
					m := cpusim.New(cpusim.Config{Cores: 2, Frames: 4096})
					opts := Options{Machine: m, Protocol: p}
					if op.swap {
						opts.SwapDev = mem.NewBlockDev("swap")
					}
					a, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					run := op.setup(t, a)

					cfg := fault.Config{Seed: seed}
					if site == fault.MemAllocFrame {
						// The hottest site gets seed-varied failure
						// points instead of failing the first call.
						cfg.Prob = 0.75
						cfg.AfterN = seed % 8
					}
					site.Arm(cfg)
					opErr := run()
					_, fired := site.Stats()
					site.Disarm()

					switch {
					case site.Kind() == fault.Delay && opErr != nil:
						t.Fatalf("delay point failed %s: %v", op.name, opErr)
					case site.Kind() == fault.Fail && fired > 0 && opErr == nil:
						t.Fatalf("site fired %d times but %s succeeded", fired, op.name)
					case site.Kind() == fault.Fail && fired > 0 && !errors.Is(opErr, mem.ErrOutOfMemory):
						t.Fatalf("injected failure not OOM-class: %v", opErr)
					}
					if opErr != nil {
						if err := run(); err != nil {
							t.Fatalf("disarmed retry failed: %v", err)
						}
					}

					a.Destroy(0)
					m.Quiesce()
					if rep := m.Phys.Audit(); !rep.Ok() {
						t.Fatalf("audit after %s with %s armed: %s", op.name, site.Name(), rep.String())
					}
					if n := m.Phys.KindFrames(mem.KindAnon); n != 0 {
						t.Errorf("%d anon frames leaked", n)
					}
					if n := m.Phys.KindFrames(mem.KindPT); n != 0 {
						t.Errorf("%d PT frames leaked", n)
					}
				})
			}
		}
	}
}
