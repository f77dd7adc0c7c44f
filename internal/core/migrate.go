package core

// Frame migration, core side: the Daemon's Migrate, which the physical
// allocator's one migration path calls. The mem layer discovers and
// pins a candidate; it is a one-page move (move.go) into the frame mem
// allocated for it.

import (
	"runtime"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// Migrate implements mem.Pressure: one move of a pinned candidate into
// the frame mem allocated for it, with its own grace period.
func (d *Daemon) Migrate(core int, req mem.MigrateReq) bool {
	a, _ := req.Owner.(*AddrSpace)
	if a == nil || !a.migrateEnter() {
		return false
	}
	defer a.migrateExit()
	// The source's references are its mapping and the scanner's pin.
	mv := move{a: a, core: core, va: arch.Vaddr(req.VA), level: 1, dst: req.Dst, ref: 2, src: []arch.PFN{req.Src}}
	return mv.run() == nil
}

// migrateEnter gates a daemon operation on this space: it
// refuses once Destroy has begun, and Destroy waits for in-flight
// operations to drain before tearing the tree down.
func (a *AddrSpace) migrateEnter() bool {
	a.migrants.Add(1)
	if a.destroyed.Load() {
		a.migrants.Add(-1)
		return false
	}
	return true
}

func (a *AddrSpace) migrateExit() { a.migrants.Add(-1) }

// drainMigrants spins until no daemon operation references this space;
// called by Destroy after the destroyed flag is set, so the pair (flag,
// spin) guarantees the daemon never touches a freed tree.
func (a *AddrSpace) drainMigrants() {
	for a.migrants.Load() > 0 {
		runtime.Gosched()
	}
}
