package mm_test

import (
	"errors"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/nros"
	"cortenmm/internal/pt"
	"cortenmm/internal/radixvm"
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
			m.Quiesce()
			if rep := m.Phys.Audit(); !rep.Ok() {
				t.Error(rep.String())
			}
		})
	}
}
