package mm_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/nros"
	"cortenmm/internal/pt"
	"cortenmm/internal/radixvm"
	"cortenmm/internal/tlb"
	"cortenmm/internal/vma"
)

// systems are the five implementations behind mm.MM.
var systems = []struct {
	name string
	new  func(m *cpusim.Machine) (mm.MM, error)
}{
	{"corten-adv", func(m *cpusim.Machine) (mm.MM, error) {
		return core.New(core.Options{Machine: m, Protocol: core.ProtocolAdv})
	}},
	{"corten-rw", func(m *cpusim.Machine) (mm.MM, error) {
		return core.New(core.Options{Machine: m, Protocol: core.ProtocolRW})
	}},
	{"linux-vma", func(m *cpusim.Machine) (mm.MM, error) { return vma.New(m, nil) }},
	{"radixvm", func(m *cpusim.Machine) (mm.MM, error) { return radixvm.New(m, nil) }},
	{"nros", func(m *cpusim.Machine) (mm.MM, error) { return nros.New(m, nil) }},
}

// entryPoints is every entry point of s — mm.MM's and those of the
// optional interfaces s implements — that takes a core and can report
// an error, called on core over [va, va+size).
func entryPoints(m *cpusim.Machine, s mm.MM, core int, va arch.Vaddr, size uint64) map[string]func() error {
	calls := map[string]func() error{
		"Mmap":      func() error { _, err := s.Mmap(core, size, arch.PermRW, 0); return err },
		"MmapFixed": func() error { return s.MmapFixed(core, va, size, arch.PermRW, 0) },
		"Munmap":    func() error { return s.Munmap(core, va, size) },
		"Mprotect":  func() error { return s.Mprotect(core, va, size, arch.PermRead) },
		"Touch":     func() error { return s.Touch(core, va, pt.AccessRead) },
		"Load":      func() error { _, err := s.Load(core, va); return err },
		"Store":     func() error { return s.Store(core, va, 1) },
	}
	if fm, ok := s.(mm.FileMapper); ok {
		calls["MmapFile"] = func() error {
			_, err := fm.MmapFile(core, mem.NewFile(m.Phys, "f", size), 0, size, arch.PermRW, true)
			return err
		}
		calls["Msync"] = func() error { return fm.Msync(core, va, size) }
	}
	if fk, ok := s.(mm.Forker); ok {
		calls["Fork"] = func() error { _, err := fk.Fork(core); return err }
	}
	if rm, ok := s.(mm.Remapper); ok {
		calls["Mremap"] = func() error { _, err := rm.Mremap(core, va, size, 2*size); return err }
	}
	if adv, ok := s.(mm.Madviser); ok {
		calls["MadviseDontNeed"] = func() error { return adv.MadviseDontNeed(core, va, size) }
	}
	if sw, ok := s.(mm.Swapper); ok {
		calls["SwapOut"] = func() error { _, err := sw.SwapOut(core, va, size); return err }
	}
	return calls
}

// refuse runs every call, each of which must fail with want and, inside
// the TimeKernel session the caller holds, add nothing to KernelNanos.
func refuse(t *testing.T, s mm.MM, calls map[string]func() error, want error, on string) {
	t.Helper()
	for name, call := range calls {
		k := s.Stats().KernelNanos.Load()
		if err := call(); !errors.Is(err, want) {
			t.Errorf("%s %s = %v, want %v", name, on, err, want)
		}
		if d := s.Stats().KernelNanos.Load() - k; d != 0 {
			t.Errorf("%s %s was timed: KernelNanos +%d ns", name, on, d)
		}
	}
}

// TestGateContract is the DESIGN §15 gate as one table against all five
// systems: a destroyed space answers mm.ErrDestroyed, a core index
// outside the machine mm.ErrBadCore and a non-canonical range
// mm.ErrBadRange — typed errors from every entry point, never a panic
// indexing per-core state or walking a freed tree — and a refused call
// moves no counter and, inside a TimeKernel session, is not timed.
func TestGateContract(t *testing.T) {
	const size = 4 * arch.PageSize
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			va, err := s.Mmap(0, size, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Store(0, va, 42); err != nil {
				t.Fatal(err)
			}
			defer s.Stats().TimeKernel()()
			before := s.Stats().Snapshot()

			for _, c := range []int{-1, m.Cores} {
				refuse(t, s, entryPoints(m, s, c, va, size), mm.ErrBadCore, fmt.Sprintf("on core %d", c))
			}
			badRanges := []struct {
				name string
				va   arch.Vaddr
				size uint64
			}{
				{"unaligned", va + 1, size},
				{"empty", va, 0},
				{"beyond", arch.MaxVaddr - arch.PageSize, size},
			}
			for _, r := range badRanges {
				calls := entryPoints(m, s, 0, r.va, r.size)
				ranged := map[string]func() error{}
				for _, name := range []string{"MmapFixed", "Munmap", "Mprotect", "Msync", "MadviseDontNeed", "SwapOut", "Mremap"} {
					if call, ok := calls[name]; ok {
						ranged[name] = call
					}
				}
				refuse(t, s, ranged, mm.ErrBadRange, "of the "+r.name+" range")
			}
			if after := s.Stats().Snapshot(); after != before {
				t.Errorf("refused calls moved counters:\nbefore %+v\nafter  %+v", before, after)
			}
			if got, err := s.Load(0, va); err != nil || got != 42 {
				t.Errorf("Load after refused calls = %d, %v", got, err)
			}

			s.Destroy(0)
			before = s.Stats().Snapshot()
			refuse(t, s, entryPoints(m, s, 0, va, size), mm.ErrDestroyed, "after Destroy")
			if after := s.Stats().Snapshot(); after != before {
				t.Errorf("counters moved on a destroyed space:\nbefore %+v\nafter  %+v", before, after)
			}
			s.Destroy(0) // idempotent
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTeardownThroughMonitor: every system tears a dead space down the
// same way. Its mappings end at Destroy, as an unmap's do — a space
// forked from it is again its pages' only mapper, so its next write
// reuses the page in place (Fig 8) — while the PT pages and frames, which
// an access that passed the gate may still be reading inside
// Machine.Access, are freed from the RCU monitor. Right after Destroy the
// monitor holds more work and every data and page-table frame of the
// space is still allocated; after Quiesce nothing of it is left.
func TestTeardownThroughMonitor(t *testing.T) {
	const pages = 8
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			va, err := s.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := s.Store(0, va+arch.Vaddr(i)*arch.PageSize, byte(i)); err != nil {
					t.Fatal(err)
				}
			}
			if fk, ok := s.(mm.Forker); ok {
				child, err := fk.Fork(0)
				if err != nil {
					t.Fatal(err)
				}
				child.Destroy(0)
				frames := m.Phys.KindFrames(mem.KindAnon)
				if err := s.Store(0, va, 0x77); err != nil {
					t.Fatal(err)
				}
				if got := m.Phys.KindFrames(mem.KindAnon); got != frames {
					t.Errorf("a write after the fork child's Destroy copied its page (%d anonymous frames, %d before): the child's mapping outlived Destroy", got, frames)
				}
			}
			m.Quiesce()
			pending := m.RCU.Stats().Pending
			anon, ptPages := m.Phys.KindFrames(mem.KindAnon), m.Phys.KindFrames(mem.KindPT)
			if anon < pages || ptPages == 0 {
				t.Fatalf("live space holds %d anonymous and %d PT frames", anon, ptPages)
			}
			s.Destroy(0)
			if got := m.RCU.Stats().Pending; got <= pending {
				t.Errorf("RCU pending %d after Destroy, %d before: the teardown did not go through the monitor", got, pending)
			}
			if a, p := m.Phys.KindFrames(mem.KindAnon), m.Phys.KindFrames(mem.KindPT); a != anon || p != ptPages {
				t.Errorf("after Destroy, before Quiesce: %d anonymous and %d PT frames allocated, want all %d and %d", a, p, anon, ptPages)
			}
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMmapFixedTwice: a fixed mapping over an existing one is refused
// with mm.ErrExists on all five — the first mapping, its frame and its
// bytes stay as they were, and nothing is left behind at teardown.
func TestMmapFixedTwice(t *testing.T) {
	const (
		size = 4 * arch.PageSize
		va   = arch.Vaddr(7) << 30
	)
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.MmapFixed(0, va, size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Store(0, va+arch.PageSize, 42); err != nil {
				t.Fatal(err)
			}
			// Refused from either node, over the whole range or part of it.
			for c, lo := range []arch.Vaddr{va, va + arch.PageSize} {
				if err := s.MmapFixed(c, lo, size, arch.PermRW, 0); !errors.Is(err, mm.ErrExists) {
					t.Errorf("MmapFixed on core %d over a live mapping = %v, want ErrExists", c, err)
				}
			}
			if got, err := s.Load(1, va+arch.PageSize); err != nil || got != 42 {
				t.Errorf("Load after the refused mapping = %d, %v", got, err)
			}
			s.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFileAccessBeyondEOF: on every system that maps files, a load,
// store or touch of a mapped page past the file's end — private or
// shared — fails with mem.ErrBeyondEOF (Linux's SIGBUS), a sentinel a
// caller can test for, and the space tears down clean.
func TestFileAccessBeyondEOF(t *testing.T) {
	const pg = arch.PageSize
	for _, sys := range systems {
		for _, shared := range []bool{false, true} {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			if fm, ok := s.(mm.FileMapper); ok {
				t.Run(fmt.Sprintf("%s/shared=%v", sys.name, shared), func(t *testing.T) {
					f := mem.NewFile(m.Phys, "f", 2*pg)
					va, err := fm.MmapFile(0, f, 0, 4*pg, arch.PermRW, shared)
					if err != nil {
						t.Fatal(err)
					}
					past := va + 2*pg
					for name, access := range map[string]func() error{
						"Load":  func() error { _, err := s.Load(0, past); return err },
						"Store": func() error { return s.Store(0, past, 1) },
						"Touch": func() error { return s.Touch(0, past, pt.AccessRead) },
					} {
						if err := access(); !errors.Is(err, mem.ErrBeyondEOF) {
							t.Errorf("%s past EOF = %v, want ErrBeyondEOF", name, err)
						}
					}
					if err := s.Store(0, va+pg, 1); err != nil {
						t.Errorf("Store inside the file: %v", err)
					}
				})
			}
			s.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Errorf("%s: %v", sys.name, err)
			}
		}
	}
}

// TestWarmedLoadAllocatesNothing: on all five a Load of a resident page
// — TLB hit or miss — stays off the Go heap; the closure that carries
// the byte out and the fault handler handed to the machine's access path
// do not escape.
func TestWarmedLoadAllocatesNothing(t *testing.T) {
	const pages = 8
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 12})
			s, err := sys.new(m)
			if err != nil {
				t.Fatal(err)
			}
			va, err := s.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for p := arch.Vaddr(0); p < pages; p++ {
				if err := s.Store(0, va+p*arch.PageSize, byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(100, func() {
				for p := arch.Vaddr(0); p < pages; p++ {
					if b, err := s.Load(0, va+p*arch.PageSize); err != nil || b != byte(p) {
						t.Fatalf("Load page %d = %d, %v", p, b, err)
					}
				}
				m.TLB.FlushLocal(0, s.ASID(), va) // the next round walks for one page
			})
			if n != 0 {
				t.Errorf("%d warmed Loads allocate %v times", pages, n)
			}
			s.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNoForeignBytesThroughStaleTranslations: cores 0 and 1 churn
// disjoint regions that interleave page by page — so they share every
// leaf PT page and each other's freshly freed frames — each storing its
// tag at its own byte offset and reading it back, while core 2 (on the
// other node) loads from both regions through whatever translations its
// TLB still holds. Core 2 reads a page of writer w at the offset only
// the *other* writer ever stores to: on a frame w owns that byte is 0.
// Frames and buffers are reused within microseconds, so anything that
// frees a frame before every core that could translate to it has let go
// shows up as the other region's tag (and, under -race, as a race
// between that load and the new owner's store or clear), as a panic on
// a free frame, or as an audit line. A load may return 0 or ErrSegv,
// never a tag. The baselines run under synchronous shootdown, as they do
// in every figure; CortenMM under all three protocols.
func TestNoForeignBytesThroughStaleTranslations(t *testing.T) {
	const (
		slots  = 16
		rounds = 400
		base   = arch.Vaddr(7) << 30
	)
	tags := [2]byte{0x11, 0x22}
	// Writer w owns the pages at base + (2i+w) pages and byte offsetOf(w).
	page := func(w, i int) arch.Vaddr { return base + arch.Vaddr(2*i+w)*arch.PageSize }
	offsetOf := func(w int) arch.Vaddr { return arch.Vaddr(64 + 128*w) }
	for _, sys := range systems {
		modes := []tlb.Mode{tlb.ModeSync}
		if strings.HasPrefix(sys.name, "corten") {
			modes = append(modes, tlb.ModeEarlyAck, tlb.ModeLATR)
		}
		for _, mode := range modes {
			t.Run(sys.name+"/"+mode.String(), func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: 4, NUMANodes: 2, Frames: 1 << 14, TLBMode: mode, TickEvery: 8})
				a, err := sys.new(m)
				if err != nil {
					t.Fatal(err)
				}
				var stop atomic.Bool
				var wg sync.WaitGroup
				errs := make(chan error, 3) // one per goroutine: each reports once and returns
				for w := 0; w < 2; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer stop.Store(true)
						for r := 0; r < rounds && !stop.Load(); r++ {
							va := page(w, r%slots)
							if err := a.MmapFixed(w, va, arch.PageSize, arch.PermRW, 0); err != nil {
								errs <- fmt.Errorf("writer %d map: %w", w, err)
								return
							}
							if err := a.Store(w, va+offsetOf(w), tags[w]); err != nil {
								errs <- fmt.Errorf("writer %d store: %w", w, err)
								return
							}
							if b, err := a.Load(w, va+offsetOf(w)); err != nil || b != tags[w] {
								errs <- fmt.Errorf("writer %d read back %#x, %v", w, b, err)
								return
							}
							if b, err := a.Load(w, va+offsetOf(1-w)); err != nil || b != 0 {
								errs <- fmt.Errorf("writer %d found %#x at the other writer's offset, %v", w, b, err)
								return
							}
							if err := a.Munmap(w, va, arch.PageSize); err != nil {
								errs <- fmt.Errorf("writer %d unmap: %w", w, err)
								return
							}
						}
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						w := i & 1
						va := page(w, (i>>1)%slots) + offsetOf(1-w)
						b, err := a.Load(2, va)
						switch {
						case errors.Is(err, mm.ErrSegv):
						case err != nil:
							errs <- fmt.Errorf("reader: %w", err)
							return
						case b != 0:
							errs <- fmt.Errorf("reader: load from writer %d's page %#x returned %#x", w, va, b)
							return
						}
					}
				}()
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				a.Destroy(0)
				if err := m.CheckClean(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
