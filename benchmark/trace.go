package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// step names one kind of span of the traced run. The sys* steps are whole
// syscalls, stepReplay is a syscall rebuilt from the transactional
// interface and timed as one span, and the steps after it are the calls
// that replay makes into one layer each.
type step uint8

const (
	stepUnit step = iota
	stepSysMmap
	stepSysMunmap
	stepSysMprotect
	stepSysFault // an access that took a page fault, handler included
	stepAccess   // an access to a resident page
	stepPresent  // the harness's own walk that tells the two apart
	stepReplay
	stepOpTick
	stepVAAlloc
	stepVAFree
	stepAcquire
	stepClose
	stepQuery
	stepMark
	stepMap
	stepUnmap
	stepProtect
	stepPopulate
	stepAllocFrame
	numSteps
)

var stepNames = [numSteps]string{
	stepUnit:        "unit",
	stepSysMmap:     "core.syscall.mmap",
	stepSysMunmap:   "core.syscall.munmap",
	stepSysMprotect: "core.syscall.mprotect",
	stepSysFault:    "core.syscall.fault",
	stepAccess:      "core.access",
	stepPresent:     "pt.walk",
	stepReplay:      "core.syscall.replay",
	stepOpTick:      "cpusim.optick",
	stepVAAlloc:     "cpusim.va_alloc",
	stepVAFree:      "cpusim.va_free",
	stepAcquire:     "core.lock.acquire",
	stepClose:       "core.lock.close",
	stepQuery:       "core.cursor.query",
	stepMark:        "core.cursor.mark",
	stepMap:         "core.cursor.map",
	stepUnmap:       "core.cursor.unmap",
	stepProtect:     "core.cursor.protect",
	stepPopulate:    "core.cursor.populate",
	stepAllocFrame:  "mem.alloc_frame",
}

// span is one timed interval. Parent is the id of the span that caused
// it (0 for a unit); spans of one unit share Unit.
type span struct {
	ID, Parent uint32
	Unit       uint32
	Name       step
	// Of is the whole syscall a replay span replays all or a part of.
	Of         step
	Pages      uint32 // pages the call covered, for the per-page metrics
	Start, End int64  // ns since the tracer's epoch
}

// tracer records the spans of one goroutine in a pre-sized slice. Spans
// inside a unit are laps: each ends where the next begins, on one clock
// reading, so the cost of the clock lands in named spans and not in the
// unit's self time.
type tracer struct {
	epoch time.Time
	spans []span
	idOff uint32 // so that two goroutines' ids do not collide
	unit  uint32 // id of the open unit span
	uidx  int    // its index
	prev  int64
	of    step // stamped on every lap until reset
}

func newTracer(epoch time.Time, capacity int, idOff uint32) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity), idOff: idOff}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) beginUnit(u int) {
	t.uidx = len(t.spans)
	t.unit = t.idOff + uint32(t.uidx) + 1
	t.spans = append(t.spans, span{ID: t.unit, Unit: uint32(u), Name: stepUnit})
	t.prev = t.now()
	t.spans[t.uidx].Start = t.prev
}

func (t *tracer) endUnit() {
	t.spans[t.uidx].End = t.now()
}

// lap closes a child span of the open unit that began at the previous lap.
func (t *tracer) lap(s step, pages int) {
	now := t.now()
	t.spans = append(t.spans, span{
		ID: t.idOff + uint32(len(t.spans)) + 1, Parent: t.unit, Unit: t.spans[t.uidx].Unit,
		Name: s, Of: t.of, Pages: uint32(pages), Start: t.prev, End: now,
	})
	t.prev = now
}

// idleLapNs is what one lap costs when nothing happens between two of
// them: a clock reading and an append. It stands in for the overhead
// measured in place when a workload makes no syscalls.
func idleLapNs() float64 {
	const n = 20000
	t := newTracer(time.Now(), n+1, 0)
	t.beginUnit(0)
	for i := 0; i < n; i++ {
		t.lap(stepAccess, 0)
	}
	t.endUnit()
	return float64(t.spans[0].End-t.spans[0].Start) / n
}

// tracedSpace is the Space of a traced round. Units take three forms in
// turn: the whole syscalls, one span each; the replay of each syscall from
// the transactional interface, one span per call into a layer; and the
// same replay timed as one span. Whole minus replay is what the syscall's
// own entry code costs, with the same clock overhead on both sides; the
// per-layer spans say where the replay's time goes.
type tracedSpace struct {
	whole Space
	dec   *decomposed
	tr    *tracer
	// replay is whether the current unit replays its syscalls.
	replay bool
}

func newTracedSpace(e *Env, tr *tracer) *tracedSpace {
	return &tracedSpace{whole: e.Sys, dec: newDecomposed(e, tr), tr: tr}
}

// setUnit picks the form of unit u. A whole unit may still have to unmap
// a range that a replay mapped, so it also says how fine that replay is.
func (t *tracedSpace) setUnit(u int) {
	t.replay = u%3 != 0
	t.dec.fine = u%3 == 1 || u%6 == 0
}

func (t *tracedSpace) Mmap(core int, size uint64, perm Perm, fl Flags) (Vaddr, error) {
	if t.replay {
		return t.dec.Mmap(core, size, perm, fl)
	}
	va, err := t.whole.Mmap(core, size, perm, fl)
	t.tr.lap(stepSysMmap, 1)
	return va, err
}

func (t *tracedSpace) MmapFixed(core int, va Vaddr, size uint64, perm Perm, fl Flags) error {
	if t.replay {
		return t.dec.MmapFixed(core, va, size, perm, fl)
	}
	err := t.whole.MmapFixed(core, va, size, perm, fl)
	t.tr.lap(stepSysMmap, 1)
	return err
}

// Munmap follows the form that mapped the range, because each form frees
// the VA to the allocator it took it from. Fixed ranges have no allocator
// and follow the unit.
func (t *tracedSpace) Munmap(core int, va Vaddr, size uint64) error {
	if t.dec.owns(va) || va < UserLo && t.replay {
		return t.dec.Munmap(core, va, size)
	}
	err := t.whole.Munmap(core, va, size)
	t.tr.lap(stepSysMunmap, int(size/PageSize))
	return err
}

func (t *tracedSpace) Mprotect(core int, va Vaddr, size uint64, perm Perm) error {
	if t.replay {
		return t.dec.Mprotect(core, va, size, perm)
	}
	err := t.whole.Mprotect(core, va, size, perm)
	t.tr.lap(stepSysMprotect, 1)
	return err
}

// pre decides how the access at va is traced. A resident page is one
// access span. A missing page is either one whole-fault span, access
// included, or the replayed handler followed by the access.
func (t *tracedSpace) pre(core int, va Vaddr) (step, error) {
	resident := t.dec.e.present(va)
	t.tr.lap(stepPresent, 1)
	switch {
	case resident:
		return stepAccess, nil
	case !t.replay:
		return stepSysFault, nil
	}
	return stepAccess, t.dec.fault(core, va)
}

// post closes the access span and ends the replayed fault, if any.
func (t *tracedSpace) post(name step) {
	if t.tr.of != 0 && !t.dec.fine {
		name = stepReplay
	}
	t.tr.lap(name, 1)
	t.tr.of = 0
}

func (t *tracedSpace) Touch(core int, va Vaddr, acc Access) error {
	name, err := t.pre(core, va)
	if err == nil {
		err = t.whole.Touch(core, va, acc)
	}
	t.post(name)
	return err
}

func (t *tracedSpace) Load(core int, va Vaddr) (byte, error) {
	name, err := t.pre(core, va)
	var b byte
	if err == nil {
		b, err = t.whole.Load(core, va)
	}
	t.post(name)
	return b, err
}

func (t *tracedSpace) Store(core int, va Vaddr, b byte) error {
	name, err := t.pre(core, va)
	if err == nil {
		err = t.whole.Store(core, va, b)
	}
	t.post(name)
	return err
}

// stepStat is what the spans of one name add up to.
type stepStat struct {
	calls int
	spans int // spans that make up those calls (decomposed syscalls only)
	pages int
	nanos int64
}

// spanSummary is the analysis of a traced round's spans.
type spanSummary struct {
	steps [numSteps]stepStat
	// fine[s] and coarse[s] are the two replays of whole syscall s: its
	// calls, the spans they were made of and their total time.
	fine, coarse [numSteps]stepStat
	// acquire holds every lock-acquire duration, for its percentile.
	acquire       []int32
	units         int
	unitNanos     int64 // total duration of unit spans
	unitSelfNanos int64 // total self time of unit spans
	// problems lists violated span invariants (a child outside its
	// parent, negative self time, children longer than their parent).
	problems []string
}

// selfTimes returns each span's duration minus the union of its
// children's intervals, indexed like spans.
func selfTimes(spans []span) ([]int64, []string) {
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[uint32][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var problems []string
	for i, s := range spans {
		self[i] = s.End - s.Start
		if self[i] < 0 {
			problems = append(problems, fmt.Sprintf("span %d ends before it starts", s.ID))
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, sum, hi int64
		hi = s.Start
		for _, k := range kids {
			c := spans[k]
			if c.Start < s.Start || c.End > s.End {
				problems = append(problems, fmt.Sprintf("span %d lies outside its parent %d", c.ID, s.ID))
			}
			sum += c.End - c.Start
			if c.End > hi {
				covered += c.End - max(c.Start, hi)
				hi = c.End
			}
		}
		if sum > s.End-s.Start {
			problems = append(problems, fmt.Sprintf("children of span %d sum to more than it lasts", s.ID))
		}
		self[i] -= covered
		if self[i] < 0 {
			problems = append(problems, fmt.Sprintf("span %d has negative self time", s.ID))
		}
	}
	for _, s := range spans {
		if _, ok := index[s.Parent]; s.Parent != 0 && !ok {
			problems = append(problems, fmt.Sprintf("span %d has unknown parent %d", s.ID, s.Parent))
		}
	}
	return self, problems
}

func summarize(spans []span) *spanSummary {
	sum := &spanSummary{}
	self, problems := selfTimes(spans)
	sum.problems = problems
	for i, s := range spans {
		d := s.End - s.Start
		st := &sum.steps[s.Name]
		st.calls++
		st.pages += int(s.Pages)
		st.nanos += d
		switch {
		case s.Name == stepReplay:
			sum.coarse[s.Of].calls++
			sum.coarse[s.Of].nanos += d
		case s.Of != 0:
			of := &sum.fine[s.Of]
			of.spans++
			of.nanos += d
			if s.Name == stepOpTick { // every replayed syscall has one
				of.calls++
			}
		}
		switch s.Name {
		case stepAcquire:
			sum.acquire = append(sum.acquire, int32(d))
		case stepUnit:
			sum.units++
			sum.unitNanos += d
			sum.unitSelfNanos += self[i]
		}
	}
	return sum
}

var syscallSteps = []step{stepSysMmap, stepSysMunmap, stepSysMprotect, stepSysFault}

// syscallSelfNs is the time per unit that the whole syscalls take beyond
// the replay of the same operations through the transactional interface:
// their entry and bookkeeping code. Both sides are single spans, so the
// clock's cost cancels. Syscalls the round did not make in both forms add
// nothing, and a difference below the noise reads 0.
func (s *spanSummary) syscallSelfNs() float64 {
	var total float64
	for _, sys := range syscallSteps {
		w, r := s.steps[sys], s.coarse[sys]
		if w.calls == 0 || r.calls == 0 {
			continue
		}
		self := float64(w.nanos)/float64(w.calls) - float64(r.nanos)/float64(r.calls)
		total += self * float64(w.calls+r.calls+s.fine[sys].calls)
	}
	if s.units == 0 {
		return 0
	}
	return max(total/float64(s.units), 0)
}

// lapOverheadNs is what one more lap adds to a syscall, measured where
// the laps are: the fine replay's time beyond the coarse replay's, per
// extra span. ok is false if the round replayed no syscall both ways.
func (s *spanSummary) lapOverheadNs() (ns float64, ok bool) {
	var extraNanos, extraSpans float64
	for _, sys := range syscallSteps {
		f, c := s.fine[sys], s.coarse[sys]
		if f.calls == 0 || c.calls == 0 {
			continue
		}
		extraNanos += float64(f.nanos) - float64(f.calls)*float64(c.nanos)/float64(c.calls)
		extraSpans += float64(f.spans - f.calls)
	}
	if extraSpans == 0 {
		return 0, false
	}
	return max(extraNanos/extraSpans, 0), true
}

// meanNet is the mean duration of a step's spans net of the lap overhead,
// or 0 if the round made no such call.
func (s *spanSummary) meanNet(st step, overhead float64) float64 {
	x := &s.steps[st]
	if x.calls == 0 {
		return 0
	}
	return max(float64(x.nanos)/float64(x.calls)-overhead, 0)
}

// perPageNet is the step's total time net of overhead divided by the
// pages it covered.
func (s *spanSummary) perPageNet(st step, overhead float64) float64 {
	x := &s.steps[st]
	if x.pages == 0 {
		return 0
	}
	return max(float64(x.nanos)-overhead*float64(x.calls), 0) / float64(x.pages)
}

// writeSpans writes the spans as JSON lines, creating the directory.
func writeSpans(path string, spans ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, list := range spans {
		for _, s := range list {
			buf = buf[:0]
			buf = append(buf, `{"id":`...)
			buf = strconv.AppendUint(buf, uint64(s.ID), 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendUint(buf, uint64(s.Parent), 10)
			buf = append(buf, `,"unit":`...)
			buf = strconv.AppendUint(buf, uint64(s.Unit), 10)
			buf = append(buf, `,"name":"`...)
			buf = append(buf, stepNames[s.Name]...)
			if s.Of != 0 {
				buf = append(buf, `","of":"`...)
				buf = append(buf, stepNames[s.Of]...)
			}
			buf = append(buf, `","pages":`...)
			buf = strconv.AppendUint(buf, uint64(s.Pages), 10)
			buf = append(buf, `,"start_ns":`...)
			buf = strconv.AppendInt(buf, s.Start, 10)
			buf = append(buf, `,"end_ns":`...)
			buf = strconv.AppendInt(buf, s.End, 10)
			buf = append(buf, "}\n"...)
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
