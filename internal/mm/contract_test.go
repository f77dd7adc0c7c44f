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

// entryPoints is every mm.MM (and mm.Madviser) entry point that takes a
// core and can report an error, called on core over [va, va+size).
func entryPoints(m *cpusim.Machine, s mm.MM, core int, va arch.Vaddr, size uint64) map[string]func() error {
	calls := map[string]func() error{
		"Mmap":      func() error { _, err := s.Mmap(core, size, arch.PermRW, 0); return err },
		"MmapFixed": func() error { return s.MmapFixed(core, va, size, arch.PermRW, 0) },
		"MmapFile": func() error {
			_, err := s.MmapFile(core, mem.NewFile(m.Phys, "f", size), 0, size, arch.PermRW, true)
			return err
		},
		"Munmap":   func() error { return s.Munmap(core, va, size) },
		"Mprotect": func() error { return s.Mprotect(core, va, size, arch.PermRead) },
		"Msync":    func() error { return s.Msync(core, va, size) },
		"Touch":    func() error { return s.Touch(core, va, pt.AccessRead) },
		"Load":     func() error { _, err := s.Load(core, va); return err },
		"Store":    func() error { return s.Store(core, va, 1) },
		"Fork":     func() error { _, err := s.Fork(core); return err },
	}
	if adv, ok := s.(mm.Madviser); ok {
		calls["MadviseDontNeed"] = func() error { return adv.MadviseDontNeed(core, va, size) }
	}
	return calls
}

// TestGateContract is the DESIGN §15 gate as one table against all five
// systems: a destroyed space answers mm.ErrDestroyed, a core index
// outside the machine mm.ErrBadCore and a non-canonical range
// mm.ErrBadRange — typed errors from every entry point, never a panic
// indexing per-core state or walking a freed tree — and a refused call
// moves no counter.
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
			before := s.Stats().Snapshot()

			for _, c := range []int{-1, m.Cores} {
				for name, call := range entryPoints(m, s, c, va, size) {
					if err := call(); !errors.Is(err, mm.ErrBadCore) {
						t.Errorf("%s on core %d = %v, want ErrBadCore", name, c, err)
					}
				}
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
				for _, name := range []string{"MmapFixed", "Munmap", "Mprotect", "Msync", "MadviseDontNeed"} {
					call, ok := calls[name]
					if !ok {
						continue
					}
					if err := call(); !errors.Is(err, mm.ErrBadRange) {
						t.Errorf("%s of the %s range = %v, want ErrBadRange", name, r.name, err)
					}
				}
			}
			if after := s.Stats().Snapshot(); after != before {
				t.Errorf("refused calls moved counters:\nbefore %+v\nafter  %+v", before, after)
			}
			if got, err := s.Load(0, va); err != nil || got != 42 {
				t.Errorf("Load after refused calls = %d, %v", got, err)
			}

			s.Destroy(0)
			before = s.Stats().Snapshot()
			for name, call := range entryPoints(m, s, 0, va, size) {
				if err := call(); !errors.Is(err, mm.ErrDestroyed) {
					t.Errorf("%s after Destroy = %v, want ErrDestroyed", name, err)
				}
			}
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
