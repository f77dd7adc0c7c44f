package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestMmapFileReclaimsBeforeOOM pins that MmapFile, like every other
// allocating call, is retried after direct reclaim: with memory full of
// swappable anonymous pages, 3-MiB file mappings (each costs page-table
// frames) keep succeeding until nothing reclaimable is left, so at the
// first failure no anonymous frame is resident.
func TestMmapFileReclaimsBeforeOOM(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 128})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			AttachReclaim(m, ReclaimConfig{})
			for i := 0; i < 12; i++ {
				if _, err := a.Mmap(0, 16*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatalf("anon mmap %d: %v", i, err)
				}
			}
			const size = 3 << 20
			for i := 0; ; i++ {
				if i == 1000 {
					t.Fatal("1000 file mappings and no OOM")
				}
				f := mem.NewFile(m.Phys, "f", size)
				if _, err = a.MmapFile(0, f, 0, size, arch.PermRW, i%2 == 0); err == nil {
					continue
				}
				if !errors.Is(err, mem.ErrOutOfMemory) {
					t.Fatalf("file mmap %d: %v", i, err)
				}
				if anon := m.Phys.KindFrames(mem.KindAnon); anon != 0 {
					t.Fatalf("file mmap %d: %v with %d anonymous frames still resident (%d PT frames)",
						i, err, anon, m.Phys.KindFrames(mem.KindPT))
				}
				t.Logf("first OOM at file mmap %d, %d PT frames", i, m.Phys.KindFrames(mem.KindPT))
				break
			}
			a.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPressurePopulateOvercommit is the headline acceptance test: on a
// 128-frame machine with a swap device, a populate workload 4x larger
// than physical memory completes through direct reclaim instead of
// returning ErrOutOfMemory, data survives the swap round trips, and the
// frame table audits clean afterwards.
func TestPressurePopulateOvercommit(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			const (
				physFrames = 128
				chunkPages = 16
				chunks     = 32 // 512 pages = 4x physical memory
			)
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: physFrames})
			dev := m.Phys.Swap()
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			d := AttachReclaim(m, ReclaimConfig{})
			defer a.Destroy(0)

			vas := make([]arch.Vaddr, 0, chunks)
			for c := 0; c < chunks; c++ {
				va, err := a.Mmap(0, chunkPages*arch.PageSize, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					t.Fatalf("chunk %d/%d failed despite reclaimable memory: %v", c, chunks, err)
				}
				vas = append(vas, va)
				// Stamp every page so swap round trips are observable.
				for i := 0; i < chunkPages; i++ {
					if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(c*chunkPages+i)); err != nil {
						t.Fatalf("store chunk %d page %d: %v", c, i, err)
					}
				}
			}
			if dev.InUse() == 0 {
				t.Fatal("overcommit completed without touching swap")
			}
			st := d.Stats()
			if st.DirectRounds == 0 {
				t.Error("no direct-reclaim rounds ran")
			}
			if st.Reclaimed == 0 {
				t.Error("manager reclaimed nothing")
			}
			// Every page readable with its pattern — most need swap-in,
			// which itself allocates under pressure.
			for c := 0; c < chunks; c++ {
				for i := 0; i < chunkPages; i++ {
					b, err := a.Load(0, vas[c]+arch.Vaddr(i*arch.PageSize))
					if err != nil {
						t.Fatalf("load chunk %d page %d: %v", c, i, err)
					}
					if b != byte(c*chunkPages+i) {
						t.Fatalf("chunk %d page %d = %d after swap round trip", c, i, b)
					}
				}
			}
			if a.Stats().SwapOuts.Load() == 0 || a.Stats().SwapIns.Load() == 0 {
				t.Errorf("swap traffic: outs=%d ins=%d",
					a.Stats().SwapOuts.Load(), a.Stats().SwapIns.Load())
			}
			m.Quiesce()
			if rep := m.Phys.Audit(); !rep.Ok() {
				t.Fatalf("%s", rep.String())
			}
			checkWF(t, a)
			// Full teardown returns every frame.
			for _, va := range vas {
				if err := a.Munmap(0, va, chunkPages*arch.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			m.Quiesce()
			if rep := m.Phys.Audit(); !rep.Ok() {
				t.Fatalf("after teardown: %s", rep.String())
			}
			if n := m.Phys.KindFrames(mem.KindAnon); n != 0 {
				t.Errorf("%d anon frames leaked", n)
			}
		})
	}
}

// TestKswapdBackgroundSweep: allocations dipping below the low
// watermark kick tick-driven background sweeps that swap cold pages out
// until free frames recover toward the high mark.
func TestKswapdBackgroundSweep(t *testing.T) {
	const frames = 256
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: frames, TickEvery: 8})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	d := AttachReclaim(m, ReclaimConfig{LowWater: 64, MinWater: 8})
	defer a.Destroy(0)

	// Drop free frames below the low watermark (64): populate ~200.
	va, err := a.Mmap(0, 200*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if free := m.Phys.FreeFrames(); free >= 64 {
		t.Fatalf("setup failed to create pressure: %d free", free)
	}
	// Resident accesses hit the TLB and never reach OpTick, so advance
	// the event clock directly; the sweeper needs several timer ticks
	// (second-chance pass first, then eviction).
	for i := 0; i < 512; i++ {
		m.OpTick(0)
	}
	if _, err := a.Load(0, va); err != nil {
		t.Fatal(err)
	}
	if d.Stats().BgSweeps == 0 {
		t.Fatal("no background sweeps despite sustained pressure")
	}
	if a.Stats().SwapOuts.Load() == 0 {
		t.Fatal("background sweeps reclaimed nothing")
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestOOMKillTeardown: with reclaim impossible (every swap write fails,
// so a sweep frees nothing), a hog exhausting physical memory is torn
// down by the OOM killer so another space's allocation can complete; the
// killed space fails fast afterwards but can still be cleaned up.
func TestOOMKillTeardown(t *testing.T) {
	defer fault.DisarmAll()
	fault.SwapWrite.Arm(fault.Config{Seed: 1})
	const frames = 256
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: frames})
	hog, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	d := AttachReclaim(m, ReclaimConfig{OOMKill: true})

	// The hog takes nearly everything.
	if _, err := hog.Mmap(0, 200*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	// The small space needs more than what's left; without the OOM
	// killer this would fail (no swap write succeeds).
	va, err := small.Mmap(1, 64*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatalf("small space wedged by the hog: %v", err)
	}
	if !hog.OOMKilled() {
		t.Fatal("hog survived")
	}
	if got := d.Stats().OOMKills; got != 1 {
		t.Fatalf("OOMKills = %d, want 1", got)
	}
	// The killed space fails fast on allocating syscalls...
	if _, err := hog.Mmap(0, arch.PageSize, arch.PermRW, 0); !errors.Is(err, ErrOOMKilled) {
		t.Fatalf("killed space Mmap returned %v, want ErrOOMKilled", err)
	}
	if err := hog.Touch(0, 0x1000, 0); !errors.Is(err, ErrOOMKilled) && !errors.Is(err, errSegv) {
		t.Fatalf("killed space Touch returned %v", err)
	}
	// ...but the survivor is fully functional.
	for i := 0; i < 64; i++ {
		if err := small.Store(1, va+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	hog.Destroy(0)
	small.Destroy(1)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
	if n := m.Phys.KindFrames(mem.KindAnon); n != 0 {
		t.Errorf("%d anon frames leaked", n)
	}
}

// TestForkChildIsReclaimed: a forked child is a live space like any
// other, so the daemon sweeps it and its allocations get the OOM retry.
// Memory is 128 frames; the child populates 512 pages in 32 mmaps, which
// only succeeds if its own cold pages are swapped out as it goes.
func TestForkChildIsReclaimed(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 128})
			parent, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			AttachReclaim(m, ReclaimConfig{})
			forked, err := parent.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			child := forked.(*AddrSpace)
			for i := 0; i < 32; i++ {
				if _, err := child.Mmap(0, 16*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatalf("child mmap %d: %v (%d anonymous frames resident)", i, err, m.Phys.KindFrames(mem.KindAnon))
				}
			}
			child.Destroy(0)
			parent.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestDestroyWaitsForSweep: a sweep holds a visit on the space it
// reclaims from, so Destroy, which waits for every visit, cannot free the
// tree while the sweep is parked inside its eviction transaction.
func TestDestroyWaitsForSweep(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1024})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			d := AttachReclaim(m, ReclaimConfig{})
			if _, err := a.Mmap(0, 32*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
				t.Fatal(err)
			}
			parked := fault.ReclaimCollected.Park()
			defer fault.ReclaimCollected.Disarm()
			swept, destroyed := make(chan struct{}), make(chan struct{})
			go func() { d.DirectReclaim(1, 16); close(swept) }()
			parked.Await()
			go func() { a.Destroy(0); close(destroyed) }()
			select {
			case <-destroyed:
				t.Error("Destroy returned while a sweep was inside the space")
			case <-time.After(200 * time.Millisecond):
			}
			parked.Release()
			for _, done := range []chan struct{}{swept, destroyed} {
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("sweep or Destroy stuck after the sweep was released")
				}
			}
			checkClean(t, m)
		})
	}
}

// TestOneDaemonOneSlot keeps a second hook slot from coming back. The
// allocator reaches the daemon through one Pressure field and holds no
// other interface and no function beside its placement policy; the
// machine holds no function at all; neither package exports a hook
// setter; the daemon keeps no table keyed by address space (a space's
// state lives on the space or in its page table, where the scanner's
// heat sits in PageState padding). There is one list of spaces, the
// machine's ASID table: the daemon holds no slice or map of spaces, a
// space names no daemon, only Daemon.visit reads the table, and only
// visit, Migrate and oomKill enter a space.
func TestOneDaemonOneSlot(t *testing.T) {
	// held is what a field holds: the target of an atomic.Pointer, else
	// its own type.
	held := func(ty reflect.Type) reflect.Type {
		if ty.PkgPath() == "sync/atomic" && strings.HasPrefix(ty.Name(), "Pointer[") {
			load, _ := reflect.PointerTo(ty).MethodByName("Load")
			return load.Type.Out(0).Elem()
		}
		return ty
	}
	pressure, slots := reflect.TypeOf((*mem.Pressure)(nil)).Elem(), 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(mem.PhysMem{})) {
		switch ty := held(f.Type); {
		case ty == pressure:
			slots++
		case ty.Kind() == reflect.Interface || ty.Kind() == reflect.Func && ty != reflect.TypeOf(mem.AllocPolicy(nil)):
			t.Errorf("mem.PhysMem.%s holds a %v: the allocator reaches the daemon through its Pressure", f.Name, ty)
		}
	}
	if slots != 1 {
		t.Errorf("mem.PhysMem has %d Pressure fields, want 1", slots)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(cpusim.Machine{})) {
		if held(f.Type).Kind() == reflect.Func {
			t.Errorf("cpusim.Machine.%s holds a function: the tick reaches the daemon through Phys.Pressure", f.Name)
		}
	}
	setter := regexp.MustCompile(`^Set\w*Hook$|^SetMigrator$|^SetPressureKick$`)
	for _, dir := range []string{"../mem", "../cpusim"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && setter.MatchString(fn.Name.Name) {
						t.Errorf("%s exports %s: install a mem.Pressure instead", dir, fn.Name.Name)
					}
				}
			}
		}
	}
	space := reflect.TypeOf(&AddrSpace{})
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Daemon{})) {
		switch f.Type.Kind() {
		case reflect.Slice:
			if f.Type.Elem() == space {
				t.Errorf("Daemon.%s lists address spaces: the machine's ASID table is the one list", f.Name)
			}
		case reflect.Map:
			if f.Type.Elem() == space {
				t.Errorf("Daemon.%s maps to address spaces: the machine's ASID table is the one list", f.Name)
			}
			if key := f.Type.Key(); key == space || key.Kind() == reflect.Struct && slices.ContainsFunc(reflect.VisibleFields(key), func(k reflect.StructField) bool { return k.Type == space }) {
				t.Errorf("Daemon.%s is keyed by address space: keep per-space state on the space", f.Name)
			}
		}
	}
	if size := unsafe.Sizeof(pt.PageState{}); size != 64 {
		t.Errorf("pt.PageState is %d bytes, want 64: the heat bytes belong in Level's padding", size)
	}
	daemons := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(AddrSpace{})) {
		if held(f.Type) == reflect.TypeOf(Daemon{}) || f.Type == reflect.TypeOf(&Daemon{}) {
			daemons++
		}
	}
	if daemons != 0 {
		t.Errorf("AddrSpace names %d daemons, want none: a space reaches its machine's through Phys.Pressure", daemons)
	}
	// Callers of Owners and enter, by go/parser over the package.
	callers := map[string][]string{}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["core"].Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Owners" || sel.Sel.Name == "enter") {
						callers[sel.Sel.Name] = append(callers[sel.Sel.Name], name)
					}
				}
				return true
			})
		}
	}
	if got, want := callers["Owners"], []string{"Daemon.visit"}; !slices.Equal(got, want) {
		t.Errorf("Machine.Owners is called by %v, want %v: every daemon visit goes through visit", got, want)
	}
	slices.Sort(callers["enter"])
	if got, want := callers["enter"], []string{"Daemon.Migrate", "Daemon.oomKill", "Daemon.visit"}; !slices.Equal(got, want) {
		t.Errorf("enter is called by %v, want %v", got, want)
	}
}
