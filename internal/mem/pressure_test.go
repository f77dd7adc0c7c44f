package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// TestDataConcurrentInit pins the CAS fix for the lazy payload race:
// many goroutines touching the same head frame's payload concurrently
// must all observe the same buffer (run under -race).
func TestDataConcurrentInit(t *testing.T) {
	m := NewPhysMem(64, 4)
	pfn, err := m.AllocFrame(0, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	bufs := make([][]byte, goroutines)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			p := m.DataPage(pfn)
			p[g] = byte(g + 1) // distinct bytes: all land in one buffer
			bufs[g] = m.Data(pfn)
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &bufs[g][0] != &bufs[0][0] {
			t.Fatalf("goroutine %d got a different payload buffer", g)
		}
	}
	for g := 0; g < goroutines; g++ {
		if bufs[0][g] != byte(g+1) {
			t.Fatalf("write by goroutine %d lost", g)
		}
	}
}

// TestAllocFramesDrainsPCP: an order>0 allocation that the buddy cannot
// serve must drain the per-core caches back to the buddy (letting the
// cached frames coalesce) and retry before failing.
func TestAllocFramesDrainsPCP(t *testing.T) {
	const frames = 256
	m := NewPhysMem(frames, 2)
	// Exhaust physical memory as order-0 frames.
	var all []arch.PFN
	for {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			break
		}
		all = append(all, pfn)
	}
	if len(all) != frames-1 {
		t.Fatalf("allocated %d frames, want %d", len(all), frames-1)
	}
	// Free an aligned quad; the frames land in core 0's pcp cache
	// (4 < pcpHigh, no spill), leaving the buddy empty.
	var quad arch.PFN
	for _, pfn := range all {
		if pfn%4 == 0 && pfn+4 <= frames {
			quad = pfn
			break
		}
	}
	if quad == 0 {
		t.Fatal("no aligned quad among allocated frames")
	}
	for i := arch.PFN(0); i < 4; i++ {
		m.Put(0, quad+i)
	}
	if got := m.zones[0].buddy.freeCount(); got != 0 {
		t.Fatalf("buddy has %d free frames, want 0 (all in pcp)", got)
	}
	// Order-2 needs the 4 cached frames merged back into one block.
	pfn, err := m.AllocFrames(1, 2, KindAnon)
	if err != nil {
		t.Fatalf("AllocFrames(order=2) did not drain pcp caches: %v", err)
	}
	if pfn != quad {
		t.Fatalf("got block %#x, want coalesced quad %#x", pfn, quad)
	}
	// Cleanup keeps the audit test below meaningful on shared state.
	m.Put(1, pfn)
	for _, p := range all {
		if p < quad || p >= quad+4 {
			m.Put(0, p)
		}
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// fakePressure is a Pressure whose Reclaim, Kick and Migrate are the
// test's own functions (a nil kick ignores kicks, a nil migrate moves
// nothing); it compacts nothing.
type fakePressure struct {
	reclaim func(core, node, target int) int
	kick    func(node int)
	migrate func(core int, req MigrateReq) bool
}

func (f fakePressure) Reclaim(core, node, target int) int { return f.reclaim(core, node, target) }
func (f fakePressure) Kick(node int) {
	if f.kick != nil {
		f.kick(node)
	}
}
func (fakePressure) Compact(core, node, order int) bool { return false }
func (f fakePressure) Migrate(core int, req MigrateReq) bool {
	return f.migrate != nil && f.migrate(core, req)
}
func (fakePressure) Tick(core int) {}

// TestAllocSlowPathReclaimHook: buddy exhaustion calls the installed
// Pressure's Reclaim for bounded rounds, and allocation succeeds once it
// frees memory.
func TestAllocSlowPathReclaimHook(t *testing.T) {
	const frames = 128
	m := NewPhysMem(frames, 1)
	var held []arch.PFN
	for {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			break
		}
		held = append(held, pfn)
	}
	rounds := 0
	m.SetPressure(fakePressure{reclaim: func(core, node, target int) int {
		rounds++
		if rounds < 2 {
			return 0 // first round: no progress, slow path must retry
		}
		n := min(target, len(held))
		for i := 0; i < n; i++ {
			m.Put(core, held[len(held)-1])
			held = held[:len(held)-1]
		}
		return n
	}})
	pfn, err := m.AllocFrame(0, KindAnon)
	if err != nil {
		t.Fatalf("slow path failed despite reclaimable memory: %v", err)
	}
	if rounds < 2 {
		t.Fatalf("Reclaim ran %d rounds, want >= 2", rounds)
	}
	held = append(held, pfn)
	// With Reclaim drained dry and below min, allocation must fail
	// after bounded rounds instead of looping forever.
	m.SetWatermarks(16, frames) // min above anything reachable
	m.SetPressure(fakePressure{reclaim: func(core, node, target int) int { return 0 }})
	rounds = 0
	for {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("hard fail returned %v", err)
			}
			break
		}
		held = append(held, pfn)
	}
	// A Pressure that does no reclaim says so once (a negative count),
	// and the slow path fails without another round.
	rounds = 0
	m.SetPressure(fakePressure{reclaim: func(core, node, target int) int { rounds++; return -1 }})
	if _, err := m.AllocFrame(0, KindAnon); !errors.Is(err, ErrOutOfMemory) || rounds != 1 {
		t.Fatalf("no-reclaim Pressure: err %v after %d rounds, want ErrOutOfMemory after 1", err, rounds)
	}
}

// TestPressureKick: allocations below the low watermark call the
// installed Pressure's Kick exactly when free frames dip under the mark.
func TestPressureKick(t *testing.T) {
	const frames = 128
	m := NewPhysMem(frames, 1)
	m.SetWatermarks(32, 4)
	kicks := 0
	m.SetPressure(fakePressure{kick: func(node int) { kicks++ }})
	var held []arch.PFN
	for i := 0; i < frames-40; i++ {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, pfn)
	}
	if kicks == 0 {
		t.Fatal("no pressure kick despite free frames below low watermark")
	}
	for _, p := range held {
		m.Put(0, p)
	}
}

// TestAuditDetectsSkew: the auditor flags counter drift and leaked
// frames that a clean state does not exhibit.
func TestAuditDetectsSkew(t *testing.T) {
	m := NewPhysMem(64, 1)
	pfn, err := m.AllocFrame(0, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("clean state flagged: %s", rep.String())
	}
	// Simulate a leaked reference count: MapCount above Ref.
	m.Desc(pfn).MapN(5)
	if rep := m.Audit(); rep.Ok() {
		t.Fatal("audit missed MapCount > Ref skew")
	}
	m.Desc(pfn).UnmapN(5)
	// Simulate kind-counter drift.
	m.kinds[KindAnon].Add(1)
	if rep := m.Audit(); rep.Ok() {
		t.Fatal("audit missed kind counter drift")
	}
	m.kinds[KindAnon].Add(-1)
	m.Put(0, pfn)
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("restored state flagged: %s", rep.String())
	}
}

// TestSwapWriteFault: an armed swap.write site fails BlockDev.Write
// with an ErrOutOfMemory-class error and leaves the block unwritten.
func TestSwapWriteFault(t *testing.T) {
	defer fault.DisarmAll()
	dev := newBlockDev()
	b := dev.AllocBlock()
	payload := bytes.Repeat([]byte{0xAB}, arch.PageSize)
	fault.SwapWrite.Arm(fault.Config{Seed: 1})
	if err := dev.Write(b, payload); err == nil {
		t.Fatal("armed swap.write did not fail")
	} else if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("swap.write failure not OOM-class: %v", err)
	}
	fault.SwapWrite.Disarm()
	buf := make([]byte, arch.PageSize)
	dev.Read(b, buf)
	if !bytes.Equal(buf, make([]byte, arch.PageSize)) {
		t.Fatal("failed write modified the block")
	}
	if err := dev.Write(b, payload); err != nil {
		t.Fatalf("retry after disarm failed: %v", err)
	}
	dev.Read(b, buf)
	if !bytes.Equal(buf, payload) {
		t.Fatal("retry did not store the payload")
	}
}
