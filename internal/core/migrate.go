package core

// Frame migration, core side: the Daemon's Migrate, which the physical
// allocator's one migration path calls. The mem layer discovers and
// pins a candidate; it is a one-page move (move.go) into the frame mem
// allocated for it.

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// Migrate implements mem.Pressure: one move of a pinned candidate into
// the frame mem allocated for it, with its own grace period.
func (d *Daemon) Migrate(core int, req mem.MigrateReq) bool {
	a, _ := req.Owner.(*AddrSpace)
	if a == nil || !a.enter() {
		return false
	}
	defer a.exit()
	// The source's references are its mapping and the scanner's pin.
	mv := move{a: a, core: core, va: arch.Vaddr(req.VA), level: 1, dst: req.Dst, ref: 2, src: []arch.PFN{req.Src}}
	return mv.run() == nil
}
