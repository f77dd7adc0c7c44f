package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/vma"
)

var _ mm.Madviser = (*AddrSpace)(nil)
var _ mm.Swapper = (*AddrSpace)(nil)

func TestMadviseDontNeedAnon(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
			for i := 0; i < 8; i++ {
				a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x10+i))
			}
			if got := m.Phys.KindFrames(mem.KindAnon); got != 8 {
				t.Fatalf("resident = %d", got)
			}
			if err := a.MadviseDontNeed(0, va, 8*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			m.Quiesce()
			if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
				t.Errorf("resident after DONTNEED = %d", got)
			}
			// The mapping survives: access faults in fresh zeroed pages.
			b, err := a.Load(0, va)
			if err != nil || b != 0 {
				t.Fatalf("post-DONTNEED read = %d, %v (want fresh zero page)", b, err)
			}
			if err := a.Store(0, va+7*arch.PageSize, 1); err != nil {
				t.Errorf("write after DONTNEED: %v", err)
			}
			checkWF(t, a)
		})
	}
}

func TestMadviseDontNeedKeepsPerms(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRead, 0)
	a.Touch(0, va, pt.AccessRead)
	if err := a.MadviseDontNeed(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch(0, va, pt.AccessWrite); err == nil {
		t.Error("RO mapping became writable after DONTNEED")
	}
	if err := a.Touch(0, va, pt.AccessRead); err != nil {
		t.Errorf("read after DONTNEED: %v", err)
	}
}

func TestMadviseDontNeedFileBacked(t *testing.T) {
	a, m := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "lib", 4*arch.PageSize)
	// Populate file page 1 via a shared mapping.
	sh, _ := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	a.Store(0, sh+arch.PageSize+3, 0x5E)
	// Private mapping reads, then drops its pages.
	pr, _ := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRead, false)
	b, _ := a.Load(0, pr+arch.PageSize+3)
	if b != 0x5E {
		t.Fatalf("pre-DONTNEED read = %#x", b)
	}
	if err := a.MadviseDontNeed(0, pr, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	// Re-access must re-fault from the file (content preserved there).
	b, err := a.Load(0, pr+arch.PageSize+3)
	if err != nil || b != 0x5E {
		t.Fatalf("post-DONTNEED file read = %#x, %v", b, err)
	}
	checkWF(t, a)
}

// TestDontNeedDropsSwappedPage: MADV_DONTNEED gives a swapped page back
// to its allocation status as it does a resident one — its swap block is
// freed at once, and the page reads zero, as on Linux. It used to walk
// resident pages only, so the swapped page kept its block and its old
// byte.
func TestDontNeedDropsSwappedPage(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			dev := mem.NewBlockDev("swap")
			a.SetSwapDev(dev)
			va, err := a.Mmap(0, 2*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range []byte{9, 8} {
				if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), b); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := a.SwapOut(0, va, arch.PageSize); err != nil || n != 1 {
				t.Fatalf("SwapOut = %d, %v", n, err)
			}
			if err := a.MadviseDontNeed(0, va, 2*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			if n := dev.InUse(); n != 0 {
				t.Errorf("%d swap blocks in use after DONTNEED", n)
			}
			for i := 0; i < 2; i++ {
				if b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize)); err != nil || b != 0 {
					t.Errorf("page %d after DONTNEED reads %d, %v; want a fresh zero page", i, b, err)
				}
			}
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// dontNeedTrace is the trace of a private file page dropped after its
// copy-on-write break: store 55 through a shared mapping of a file page,
// COW-break a private mapping of the same page with 9, optionally fork
// and mprotect the private mapping read-only, then MADV_DONTNEED it. It
// returns what the loads read and the stores answered, in order; the
// child of a fork is destroyed before it returns. s must be a
// FileMapper, a Forker and a Madviser.
func dontNeedTrace(t *testing.T, m *cpusim.Machine, s mm.MM, fork, readOnly bool) string {
	t.Helper()
	const pg = arch.PageSize
	files, forker, adv := s.(mm.FileMapper), s.(mm.Forker), s.(mm.Madviser)
	var log []string
	load := func(s mm.MM, va arch.Vaddr) {
		b, err := s.Load(0, va)
		log = append(log, fmt.Sprintf("load %d %v", b, err))
	}
	f := mem.NewFile(m.Phys, "f", pg)
	sh, err := files.MmapFile(0, f, 0, pg, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := files.MmapFile(0, f, 0, pg, arch.PermRW, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(0, sh, 55); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(0, pr, 9); err != nil {
		t.Fatal(err)
	}
	var child mm.MM
	if fork {
		if child, err = forker.Fork(0); err != nil {
			t.Fatal(err)
		}
	}
	if readOnly {
		if err := s.Mprotect(0, pr, pg, arch.PermRead); err != nil {
			t.Fatal(err)
		}
	}
	if err := adv.MadviseDontNeed(0, pr, pg); err != nil {
		t.Fatal(err)
	}
	load(s, pr)
	log = append(log, fmt.Sprintf("store segv=%v", errors.Is(s.Store(0, pr, 7), mm.ErrSegv)))
	load(s, pr)
	load(s, sh)
	if child != nil {
		load(child, pr)
		child.Destroy(0)
	}
	return strings.Join(log, "; ")
}

// TestDontNeedRefaultsPrivateFileAfterCOW: a private file page dropped
// after its copy-on-write break re-faults from the file, as on Linux —
// with or without a fork before the madvise, writable or mprotected
// read-only, and with the permission mprotect set. The page used to
// forget its file: the copy's frame is anonymous, and the frame was all
// DONTNEED asked, so the page read zero.
func TestDontNeedRefaultsPrivateFileAfterCOW(t *testing.T) {
	for _, p := range protocols {
		for _, fork := range []bool{false, true} {
			for _, readOnly := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/fork=%v/readonly=%v", p, fork, readOnly), func(t *testing.T) {
					a, m := newSpace(t, p)
					got := dontNeedTrace(t, m, a, fork, readOnly)
					want := "load 55 <nil>; store segv=false; load 7 <nil>; load 55 <nil>"
					if readOnly {
						want = "load 55 <nil>; store segv=true; load 55 <nil>; load 55 <nil>"
					}
					if fork {
						want += "; load 9 <nil>"
					}
					if got != want {
						t.Errorf("trace reads\n\t%s\nwant\n\t%s", got, want)
					}
					checkRegistrations(t, m.Phys, nil, a)
					checkQuiet(t, a)
					a.Destroy(0)
					checkClean(t, m)
				})
			}
		}
	}
}

// TestDontNeedMatchesLinuxBaseline runs dontNeedTrace through mm.MM on
// both CortenMM protocols and the Linux (VMA) baseline, which re-reads a
// dropped private file page from the page cache; every variant must
// read the same bytes on all three.
func TestDontNeedMatchesLinuxBaseline(t *testing.T) {
	systems := []struct {
		name string
		new  func(m *cpusim.Machine) (mm.MM, error)
	}{
		{"corten-adv", func(m *cpusim.Machine) (mm.MM, error) { return New(Options{Machine: m, Protocol: ProtocolAdv}) }},
		{"corten-rw", func(m *cpusim.Machine) (mm.MM, error) { return New(Options{Machine: m, Protocol: ProtocolRW}) }},
		{"linux-vma", func(m *cpusim.Machine) (mm.MM, error) { return vma.New(m, nil) }},
	}
	for _, fork := range []bool{false, true} {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("fork=%v/readonly=%v", fork, readOnly), func(t *testing.T) {
				var linux string
				for i := len(systems) - 1; i >= 0; i-- {
					sys := systems[i]
					m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
					s, err := sys.new(m)
					if err != nil {
						t.Fatal(err)
					}
					got := dontNeedTrace(t, m, s, fork, readOnly)
					s.Destroy(0)
					if err := m.CheckClean(); err != nil {
						t.Errorf("%s: %v", sys.name, err)
					}
					if i == len(systems)-1 {
						linux = got
					} else if got != linux {
						t.Errorf("%s reads\n\t%s\nthe Linux baseline\n\t%s", sys.name, got, linux)
					}
				}
			})
		}
	}
}
