package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

// A workload is a closed loop of units issued by one goroutine per thread.
// Its op stream is generated from the seed before anything is timed; the
// program under test sees only the calls the stream turns into.
type workload struct {
	name string
	why  string
	// threads is the number of worker goroutines, each on its own core.
	threads int
	// units is the unit count of one round at scale 1, over all threads.
	units int
	// checks is how many results one unit checks (calls that may fail,
	// bytes read back, expected faults).
	checks int
	// words is how many stream words one unit consumes.
	words int
	// hostExp is how much more of its speed the timed phase loses in a
	// disturbed period than the calibration kernel does, as an exponent on
	// the host factor. Measured over three ten-seed sessions and frozen
	// with the kernel: 1 where the factor itself fits best, 1.5 for
	// resident_access (every access lands on its own host page, so it
	// waits for the host's memory system more often than the kernel
	// does): within a session its spread was smallest at 2.0, 1.25 and
	// 2.0, and 1.5 is also what keeps its level the same between a quiet
	// and a disturbed session.
	hostExp float64
	// spans is an upper estimate of the spans one unit records in the
	// traced round, averaged over its forms; it sizes that round.
	spans int
	// probeBit, if set, marks the stream words whose unit makes one more
	// check than checks.
	probeBit uint16
	// gen fills one thread's stream.
	gen func(r *rand.Rand, st []uint16)
	// start builds the per-round state on top of the streams.
	start func(streams [][]uint16) instance
}

// instance is the state of a workload within one round.
type instance interface {
	// setup builds the standing state and runs one warm-up unit. It
	// reads the page-table footprint at the workload's high-water point.
	setup(e *Env, s Space) (highWater, error)
	// unit runs unit u of the given core's stream and returns how many
	// of its checks failed.
	unit(s Space, core, u int) int
	// err is the first failure any unit saw, for the diagnostics.
	err() error
}

// highWater is the page-table footprint where the workload maps the most.
type highWater struct {
	ptBytes uint64
	ptPages int64
	pages   uint64 // pages covered by live mappings at that point
}

func readHighWater(e *Env, pages uint64) highWater {
	return highWater{ptBytes: e.PTBytes(), ptPages: e.PTPages(), pages: pages}
}

// firstErr keeps the first error per core without synchronisation.
type firstErr [simCores]error

func (f *firstErr) note(core int, err error) int {
	if f[core] == nil {
		f[core] = err
	}
	return 1
}

func (f *firstErr) err() error { return errors.Join(f[:]...) }

const regionBytes = 4 * PageSize // the 16-KiB region most units map

var workloads = []workload{
	{
		name:    "anon_churn",
		why:     "malloc-style heap: unmap a live 16K region, map a new one, fault its 4 pages, read back; fault path, pcp frame alloc and lazy payload dominate",
		threads: 1, units: 40000, checks: 7, words: 2, hostExp: 1, spans: 36,
		gen: func(r *rand.Rand, st []uint16) {
			for i := 0; i < len(st); i += 2 {
				st[i] = uint16(r.UintN(anonRing))              // victim region
				st[i+1] = uint16(r.UintN(4) | r.UintN(256)<<8) // page read back | tag
			}
		},
		start: func(s [][]uint16) instance { return &anonChurn{st: s[0]} },
	},
	{
		name:    "virt_churn",
		why:     "metadata only: 32 mmap, 32 mprotect, 32 munmap of untouched 16K regions; VA allocator, lock protocol, Mark and per-syscall bookkeeping dominate",
		threads: 1, units: 12000, checks: 3 * virtRegions, words: 2 * virtRegions, hostExp: 1, spans: 280,
		gen: func(r *rand.Rand, st []uint16) {
			for i := 0; i < len(st); i += virtRegions {
				for j, p := range r.Perm(virtRegions) { // order of one leg
					st[i+j] = uint16(p)
				}
			}
		},
		start: func(s [][]uint16) instance { return &virtChurn{st: s[0]} },
	},
	{
		name:    "bulk_range",
		why:     "per-page bulk cost: mmap 8M populated, read 8 pages, mprotect and munmap the range; populate, batch alloc, range shootdown and deferred PT frees dominate",
		threads: 1, units: 1200, checks: 3 + bulkLoads, words: bulkLoads, hostExp: 1, spans: 30,
		gen: func(r *rand.Rand, st []uint16) {
			for i := range st {
				st[i] = uint16(r.UintN(bulkPages))
			}
		},
		start: func(s [][]uint16) instance { return &bulkRange{st: s[0]} },
	},
	{
		name:    "resident_access",
		why:     "read side: 256 loads and stores over 8192 resident pages, 80% in a 1024-page hot set, 4x the TLB; no syscalls or faults, so TLB, walker and RCU read sections dominate",
		threads: 1, units: 12000, checks: residentAccesses, words: residentAccesses, hostExp: 1.5, spans: 2*residentAccesses + 1,
		gen: func(r *rand.Rand, st []uint16) {
			hot := r.Perm(residentPages)[:residentHot]
			for i := range st {
				page := r.UintN(residentPages)
				if r.UintN(5) != 0 {
					page = uint(hot[r.UintN(residentHot)])
				}
				if r.UintN(4) == 0 {
					page |= residentStore
				}
				st[i] = uint16(page)
			}
		},
		start: func(s [][]uint16) instance { return &residentAccess{st: s[0]} },
	},
	{
		name:    "shared_churn_2t",
		why:     "high contention: 2 threads map, fault and unmap 16K chunks interleaved in one 8M window, sharing every leaf PT page; lock wait and TLB fan-out dominate",
		threads: 2, units: 100000, checks: 6, words: 1, hostExp: 1, spans: 36, probeBit: sharedProbe,
		gen: func(r *rand.Rand, st []uint16) {
			for i := range st {
				st[i] = uint16(r.UintN(sharedChunks / 2))
				if r.UintN(64) == 0 {
					st[i] |= sharedProbe
				}
			}
		},
		start: func(s [][]uint16) instance { return &sharedChurn{st: s} },
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streams generates the op streams of a round of the given unit count,
// one per thread. The same seed always gives the same streams.
func (w *workload) streams(seed uint64, units int) [][]uint16 {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	out := make([][]uint16, w.threads)
	for t := range out {
		// The second PCG word separates workloads and threads.
		r := rand.New(rand.NewPCG(seed, h.Sum64()+uint64(t)))
		out[t] = make([]uint16, units/w.threads*w.words)
		w.gen(r, out[t])
	}
	return out
}

// anon_churn

const anonRing = 1024

type anonChurn struct {
	st   []uint16
	ring [anonRing]Vaddr
	firstErr
}

func (w *anonChurn) setup(e *Env, s Space) (highWater, error) {
	for i := range w.ring {
		va, err := s.Mmap(0, regionBytes, PermRW, 0)
		if err != nil {
			return highWater{}, err
		}
		for p := Vaddr(0); p < 4; p++ {
			if err := s.Store(0, va+p*PageSize, 1); err != nil {
				return highWater{}, err
			}
		}
		w.ring[i] = va
	}
	hw := readHighWater(e, anonRing*4)
	if w.churn(s, 0, 0, 1) != 0 {
		return hw, w.err()
	}
	return hw, nil
}

func (w *anonChurn) unit(s Space, core, u int) int {
	x := w.st[2*u+1]
	return w.churn(s, int(w.st[2*u]), Vaddr(x&3), byte(x>>8)|1)
}

// churn replaces ring entry victim by a fresh region whose four pages
// hold tag, and reads page back.
func (w *anonChurn) churn(s Space, victim int, back Vaddr, tag byte) (failed int) {
	if err := s.Munmap(0, w.ring[victim], regionBytes); err != nil {
		failed += w.note(0, fmt.Errorf("anon_churn munmap: %w", err))
	}
	va, err := s.Mmap(0, regionBytes, PermRW, 0)
	if err != nil {
		// The ring keeps the dead region; the next unmap of it is a no-op.
		return failed + w.note(0, fmt.Errorf("anon_churn mmap: %w", err))
	}
	w.ring[victim] = va
	for p := Vaddr(0); p < 4; p++ {
		if err := s.Store(0, va+p*PageSize, tag); err != nil {
			failed += w.note(0, fmt.Errorf("anon_churn store: %w", err))
		}
	}
	if b, err := s.Load(0, va+back*PageSize); err != nil || b != tag {
		failed += w.note(0, fmt.Errorf("anon_churn read back %#x, want %#x: %v", b, tag, err))
	}
	return failed
}

// virt_churn

const virtRegions = 32

type virtChurn struct {
	st  []uint16
	vas [virtRegions]Vaddr
	firstErr
}

// identity is the leg order of the warm-up unit.
var identity = func() (p [virtRegions]uint16) {
	for i := range p {
		p[i] = uint16(i)
	}
	return p
}()

func (w *virtChurn) setup(e *Env, s Space) (highWater, error) {
	failed := w.mapLeg(s)
	hw := readHighWater(e, virtRegions*4)
	failed += w.protectLeg(s, identity[:]) + w.unmapLeg(s, identity[:])
	if failed != 0 {
		return hw, w.err()
	}
	return hw, nil
}

func (w *virtChurn) unit(s Space, core, u int) int {
	st := w.st[2*virtRegions*u:]
	return w.mapLeg(s) + w.protectLeg(s, st[:virtRegions]) + w.unmapLeg(s, st[virtRegions:2*virtRegions])
}

func (w *virtChurn) mapLeg(s Space) (failed int) {
	for i := range w.vas {
		va, err := s.Mmap(0, regionBytes, PermRW, 0)
		if err != nil {
			failed += w.note(0, fmt.Errorf("virt_churn mmap: %w", err))
		}
		w.vas[i] = va
	}
	return failed
}

func (w *virtChurn) protectLeg(s Space, order []uint16) (failed int) {
	for _, i := range order {
		if err := s.Mprotect(0, w.vas[i], regionBytes, PermRead); err != nil {
			failed += w.note(0, fmt.Errorf("virt_churn mprotect: %w", err))
		}
	}
	return failed
}

func (w *virtChurn) unmapLeg(s Space, order []uint16) (failed int) {
	for _, i := range order {
		if err := s.Munmap(0, w.vas[i], regionBytes); err != nil {
			failed += w.note(0, fmt.Errorf("virt_churn munmap: %w", err))
		}
	}
	return failed
}

// bulk_range

const (
	bulkPages = 2048 // 8 MiB
	bulkBytes = bulkPages * PageSize
	bulkLoads = 8
)

type bulkRange struct {
	st []uint16
	firstErr
}

func (w *bulkRange) setup(e *Env, s Space) (highWater, error) {
	va, err := s.Mmap(0, bulkBytes, PermRW, FlagPopulate)
	if err != nil {
		return highWater{}, err
	}
	hw := readHighWater(e, bulkPages)
	if w.rest(s, va, make([]uint16, bulkLoads)) != 0 {
		return hw, w.err()
	}
	return hw, nil
}

func (w *bulkRange) unit(s Space, core, u int) int {
	va, err := s.Mmap(0, bulkBytes, PermRW, FlagPopulate)
	if err != nil {
		return w.note(0, fmt.Errorf("bulk_range mmap: %w", err))
	}
	return w.rest(s, va, w.st[bulkLoads*u:bulkLoads*(u+1)])
}

// rest reads the given pages of the fresh range, expecting zeroes, then
// write-protects and unmaps it.
func (w *bulkRange) rest(s Space, va Vaddr, pages []uint16) (failed int) {
	for _, p := range pages {
		if b, err := s.Load(0, va+Vaddr(p)*PageSize); err != nil || b != 0 {
			failed += w.note(0, fmt.Errorf("bulk_range load %#x, want 0: %v", b, err))
		}
	}
	if err := s.Mprotect(0, va, bulkBytes, PermRead); err != nil {
		failed += w.note(0, fmt.Errorf("bulk_range mprotect: %w", err))
	}
	if err := s.Munmap(0, va, bulkBytes); err != nil {
		failed += w.note(0, fmt.Errorf("bulk_range munmap: %w", err))
	}
	return failed
}

// resident_access

const (
	residentPages    = 8192 // 4x the 2048-entry per-core TLB
	residentHot      = 1024
	residentAccesses = 256
	residentStore    = 1 << 15 // stream bit: this access is a store
)

type residentAccess struct {
	st   []uint16
	base Vaddr
	tags [residentPages]byte // the byte last stored to each page
	firstErr
}

func (w *residentAccess) setup(e *Env, s Space) (highWater, error) {
	va, err := s.Mmap(0, residentPages*PageSize, PermRW, FlagPopulate)
	if err != nil {
		return highWater{}, err
	}
	w.base = va
	// Read every page once, so that no lazy frame payload is left to be
	// allocated inside the timed phase.
	for p := Vaddr(0); p < residentPages; p++ {
		if b, err := s.Load(0, va+p*PageSize); err != nil || b != 0 {
			return highWater{}, fmt.Errorf("resident_access first load %#x, want 0: %v", b, err)
		}
	}
	hw := readHighWater(e, residentPages)
	warm := make([]uint16, residentAccesses)
	for i := range warm {
		warm[i] = uint16(i)
	}
	if w.run(s, warm) != 0 {
		return hw, w.err()
	}
	return hw, nil
}

func (w *residentAccess) unit(s Space, core, u int) int {
	return w.run(s, w.st[residentAccesses*u:residentAccesses*(u+1)])
}

func (w *residentAccess) run(s Space, accesses []uint16) (failed int) {
	for _, x := range accesses {
		page := x &^ residentStore
		va := w.base + Vaddr(page)*PageSize + Vaddr(page&63)
		if x&residentStore != 0 {
			tag := byte(page) | 1
			if err := s.Store(0, va, tag); err != nil {
				failed += w.note(0, fmt.Errorf("resident_access store: %w", err))
			}
			w.tags[page] = tag
		} else if b, err := s.Load(0, va); err != nil || b != w.tags[page] {
			failed += w.note(0, fmt.Errorf("resident_access load %#x, want %#x: %v", b, w.tags[page], err))
		}
	}
	return failed
}

// shared_churn_2t

const (
	sharedBase   = Vaddr(1) << 30 // below UserLo, where fixed mappings live
	sharedChunks = 512            // 16-KiB chunks of the 8-MiB window
	sharedProbe  = 1 << 15        // stream bit: touch again after the unmap
)

type sharedChurn struct {
	st [][]uint16
	firstErr
}

func chunkVA(thread, i int) Vaddr {
	return sharedBase + Vaddr(2*i+thread)*regionBytes
}

// setup has both cores map, touch and unmap one chunk each, so that both
// have used the ASID and no shootdown can be filtered by presence.
func (w *sharedChurn) setup(e *Env, s Space) (highWater, error) {
	for t := 0; t < 2; t++ {
		if w.mapAndTouch(s, t, chunkVA(t, 0)) != 0 {
			return highWater{}, w.err()
		}
	}
	hw := readHighWater(e, 2*4)
	for t := 0; t < 2; t++ {
		if err := s.Munmap(t, chunkVA(t, 0), regionBytes); err != nil {
			return hw, err
		}
	}
	return hw, nil
}

func (w *sharedChurn) mapAndTouch(s Space, core int, va Vaddr) (failed int) {
	if err := s.MmapFixed(core, va, regionBytes, PermRW, 0); err != nil {
		return w.note(core, fmt.Errorf("shared_churn_2t mmap fixed: %w", err))
	}
	for p := Vaddr(0); p < 4; p++ {
		if err := s.Touch(core, va+p*PageSize, AccessWrite); err != nil {
			failed += w.note(core, fmt.Errorf("shared_churn_2t touch: %w", err))
		}
	}
	return failed
}

func (w *sharedChurn) unit(s Space, core, u int) int {
	x := w.st[core][u]
	va := chunkVA(core, int(x&^sharedProbe))
	failed := w.mapAndTouch(s, core, va)
	if err := s.Munmap(core, va, regionBytes); err != nil {
		failed += w.note(core, fmt.Errorf("shared_churn_2t munmap: %w", err))
	}
	if x&sharedProbe != 0 {
		if err := s.Touch(core, va, AccessWrite); !errors.Is(err, ErrSegv) {
			failed += w.note(core, fmt.Errorf("shared_churn_2t touch after munmap: %v, want a segmentation fault", err))
		}
	}
	return failed
}
