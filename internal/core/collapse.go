package core

import (
	"errors"
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// CollapseHuge promotes the 2-MiB span containing va into one huge
// mapping (the khugepaged operation), provided every 4-KiB page in the
// span is a resident, exclusively owned anonymous page with a uniform
// permission. It is a level-2 move (move.go) into a fresh naturally
// aligned block: the span is write-protected and shot down before a byte
// is copied, so a store racing the collapse either lands before the
// break and is copied, or faults, waits for the move's lock and lands in
// the huge page. Returns mm.ErrNotSupported when the span is not
// collapsible.
func (a *AddrSpace) CollapseHuge(core int, va arch.Vaddr) error {
	if !a.isa.SupportsHugeAt(2) {
		return fmt.Errorf("%w: no 2MiB pages on %s", mm.ErrNotSupported, a.isa.Name())
	}
	if err := a.checkAlive(core); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)

	// Allocate the order-9 target before any transaction: the order>0
	// slow path may run direct compaction, which refuses inside one
	// (Daemon.Compact). Out here the allocating goroutine holds nothing,
	// so a fragmented zone can be compacted on demand to serve the
	// collapse.
	block, err := a.m.Phys.AllocFrames(core, arch.IndexBits, mem.KindAnon)
	if err != nil {
		return err // no contiguous memory: not an error of the span
	}
	mv := move{a: a, core: core, va: va &^ arch.Vaddr(arch.SpanBytes(2)-1), level: 2, dst: block, ref: 1}
	if err = mv.run(); err != nil {
		a.m.Phys.Put(core, block)
		if errors.Is(err, errHuge) {
			return nil // already huge: nothing to do
		}
		return err
	}
	a.stats.Collapses.Add(1)
	return nil
}
