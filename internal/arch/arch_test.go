package arch

import (
	"testing"
	"testing/quick"
)

func allISAs() []ISA {
	return []ISA{X8664(false), X8664(true), RISCV(), ARM64()}
}

func TestGeometry(t *testing.T) {
	if VABits != 48 {
		t.Fatalf("VABits = %d, want 48", VABits)
	}
	if SpanBytes(1) != 4096 {
		t.Errorf("SpanBytes(1) = %d, want 4096", SpanBytes(1))
	}
	if SpanBytes(2) != 2<<20 {
		t.Errorf("SpanBytes(2) = %d, want 2MiB", SpanBytes(2))
	}
	if SpanBytes(3) != 1<<30 {
		t.Errorf("SpanBytes(3) = %d, want 1GiB", SpanBytes(3))
	}
	if SpanBytes(4) != 512<<30 {
		t.Errorf("SpanBytes(4) = %d, want 512GiB", SpanBytes(4))
	}
}

func TestIndexAt(t *testing.T) {
	// va = idx4..idx1 composed manually.
	va := Vaddr(3)<<SpanShift(3) | Vaddr(511)<<SpanShift(2) | Vaddr(7)<<SpanShift(1) | Vaddr(42)<<SpanShift(0)
	for _, tc := range []struct {
		level int
		want  int
	}{{4, 3}, {3, 511}, {2, 7}, {1, 42}} {
		if got := IndexAt(va, tc.level); got != tc.want {
			t.Errorf("IndexAt(level %d) = %d, want %d", tc.level, got, tc.want)
		}
	}
}

func TestAlign(t *testing.T) {
	if PageAlignDown(0x1fff) != 0x1000 {
		t.Errorf("PageAlignDown(0x1fff) = %#x", PageAlignDown(0x1fff))
	}
	if PageAlignUp(0x1001) != 0x2000 {
		t.Errorf("PageAlignUp(0x1001) = %#x", PageAlignUp(0x1001))
	}
	if !IsPageAligned(0x4000) || IsPageAligned(0x4001) {
		t.Error("IsPageAligned misclassifies")
	}
}

func TestCheckCanonical(t *testing.T) {
	if err := CheckCanonical(0x1000, PageSize); err != nil {
		t.Errorf("aligned in-bounds range rejected: %v", err)
	}
	if err := CheckCanonical(0x1001, PageSize); err == nil {
		t.Error("unaligned base accepted")
	}
	if err := CheckCanonical(0x1000, PageSize+1); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := CheckCanonical(0x1000, 0); err == nil {
		t.Error("empty range accepted")
	}
	if err := CheckCanonical(Vaddr(MaxVaddr-PageSize), 2*PageSize); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

func TestLeafRoundTrip(t *testing.T) {
	perms := []Perm{
		PermRead, PermRW, PermRWX, PermRead | PermExec,
		PermRW | PermUser, PermRead | PermCOW, PermRW | PermShared | PermUser,
	}
	for _, isa := range allISAs() {
		for _, level := range []int{1, 2, 3} {
			if level > 1 && !isa.SupportsHugeAt(level) {
				continue
			}
			for _, p := range perms {
				pte := isa.EncodeLeaf(PFN(0x1234), p, level)
				if !isa.IsPresent(pte) {
					t.Errorf("%s L%d %v: leaf not present", isa.Name(), level, p)
				}
				if !isa.IsLeaf(pte, level) {
					t.Errorf("%s L%d %v: leaf not recognized as leaf", isa.Name(), level, p)
				}
				if got := isa.PFNOf(pte); got != 0x1234 {
					t.Errorf("%s L%d: PFN = %#x, want 0x1234", isa.Name(), level, got)
				}
				if got := isa.PermOf(pte); got != p {
					t.Errorf("%s L%d: Perm = %v, want %v", isa.Name(), level, got, p)
				}
			}
		}
	}
}

func TestTableEntries(t *testing.T) {
	for _, isa := range allISAs() {
		pte := isa.EncodeTable(PFN(0x55))
		if !isa.IsPresent(pte) {
			t.Errorf("%s: table entry not present", isa.Name())
		}
		for _, level := range []int{2, 3, 4} {
			if isa.IsLeaf(pte, level) {
				t.Errorf("%s: table entry misread as leaf at level %d", isa.Name(), level)
			}
		}
		if got := isa.PFNOf(pte); got != 0x55 {
			t.Errorf("%s: table PFN = %#x, want 0x55", isa.Name(), got)
		}
	}
}

func TestNotPresentZero(t *testing.T) {
	for _, isa := range allISAs() {
		if isa.IsPresent(0) {
			t.Errorf("%s: zero PTE reported present", isa.Name())
		}
	}
}

func TestAccessedDirty(t *testing.T) {
	for _, isa := range allISAs() {
		pte := isa.EncodeLeaf(1, PermRW, 1)
		if isa.Accessed(pte) || isa.Dirty(pte) {
			t.Errorf("%s: fresh PTE has A/D set", isa.Name())
		}
		pte = isa.SetAccessed(pte)
		if !isa.Accessed(pte) {
			t.Errorf("%s: SetAccessed did not stick", isa.Name())
		}
		pte = isa.SetDirty(pte)
		if !isa.Dirty(pte) {
			t.Errorf("%s: SetDirty did not stick", isa.Name())
		}
		if isa.PermOf(pte) != PermRW {
			t.Errorf("%s: A/D bits perturbed perms: %v", isa.Name(), isa.PermOf(pte))
		}
	}
}

func TestWithPerm(t *testing.T) {
	for _, isa := range allISAs() {
		pte := isa.EncodeLeaf(PFN(99), PermRW|PermUser, 1)
		pte = isa.WithPerm(pte, PermRead|PermCOW, 1)
		if got := isa.PermOf(pte); got != PermRead|PermCOW {
			t.Errorf("%s: WithPerm = %v", isa.Name(), got)
		}
		if isa.PFNOf(pte) != 99 {
			t.Errorf("%s: WithPerm lost PFN", isa.Name())
		}
		// Huge leaves must stay huge.
		pte = isa.EncodeLeaf(PFN(7), PermRW, 2)
		pte = isa.WithPerm(pte, PermRead, 2)
		if !isa.IsLeaf(pte, 2) {
			t.Errorf("%s: WithPerm dropped huge-leaf shape", isa.Name())
		}
	}
}

func TestMPK(t *testing.T) {
	mpk := X8664(true)
	plain := X8664(false)
	pte := mpk.EncodeLeaf(PFN(5), PermRW, 1)
	pte = mpk.WithProtKey(pte, 11)
	if got := mpk.ProtKeyOf(pte); got != 11 {
		t.Errorf("ProtKeyOf = %d, want 11", got)
	}
	if mpk.PFNOf(pte) != 5 || mpk.PermOf(pte) != PermRW {
		t.Error("MPK key clobbered PFN or perms")
	}
	// Plain x86 ignores keys entirely.
	pte2 := plain.EncodeLeaf(PFN(5), PermRW, 1)
	if plain.WithProtKey(pte2, 7) != pte2 {
		t.Error("plain x86 modified PTE for prot key")
	}
	if plain.ProtKeyOf(pte) != 0 {
		t.Error("plain x86 decoded a prot key")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"x86_64", "amd64", "riscv64", "sv48", "mpk", "arm64", "aarch64"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("itanium"); err == nil {
		t.Error("ByName accepted unknown ISA (hashed page tables are out of scope)")
	}
}

// Property: for every ISA, encoding a leaf with any PFN within range and
// any permission subset round-trips exactly.
func TestQuickLeafRoundTrip(t *testing.T) {
	for _, isa := range allISAs() {
		isa := isa
		f := func(rawPFN uint64, rawPerm uint8) bool {
			pfn := PFN(rawPFN % (1 << 36))
			p := Perm(rawPerm) & (PermRead | PermWrite | PermExec | PermUser | PermCOW | PermShared)
			p |= PermRead // a leaf always means something is mapped
			pte := isa.EncodeLeaf(pfn, p, 1)
			return isa.IsPresent(pte) && isa.IsLeaf(pte, 1) &&
				isa.PFNOf(pte) == pfn && isa.PermOf(pte) == p
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", isa.Name(), err)
		}
	}
}

// Property: IndexAt decomposition followed by recomposition is identity
// for page-aligned addresses.
func TestQuickIndexDecompose(t *testing.T) {
	f := func(raw uint64) bool {
		va := Vaddr(raw) % MaxVaddr
		va = PageAlignDown(va)
		var rebuilt Vaddr
		for level := Levels; level >= 1; level-- {
			rebuilt |= Vaddr(IndexAt(va, level)) << SpanShift(level-1)
		}
		return rebuilt == va
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermString(t *testing.T) {
	if s := (PermRW | PermUser).String(); s != "rw-u" {
		t.Errorf("Perm string = %q", s)
	}
	if s := (PermRead | PermCOW).String(); s != "r---+cow" {
		t.Errorf("Perm string = %q", s)
	}
}
