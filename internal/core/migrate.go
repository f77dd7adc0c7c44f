package core

// Frame migration, core side: the Daemon's Migrate, which the physical
// allocator calls. The mem layer discovers and pins candidates; this
// file runs the locked remap for each one, in break-before-make order
// (the Armv8-A BBM discipline for changing the output address of a live
// translation):
//
//  1. txn 1 — lock the page's covering PT page, revalidate the
//     reverse-map hint (right frame, exclusive, anonymous, no COW),
//     then write-protect the PTE (clear Write, set COW) and issue a
//     synchronous shootdown. After this no core holds a writable
//     translation of the source.
//  2. One RCU grace period — taken once per batch, with no locks held
//     (the lock paths open RCU read sections, so a barrier under a PT
//     lock could deadlock). In-flight lockless accessors that loaded
//     the old writable PTE have drained; late writers now fault.
//  3. txn 2 — re-lock, revalidate that nothing moved in the window
//     (same frame, same write-protected permission, still exclusive),
//     copy source to destination, and atomically switch the PTE to the
//     destination with the original permission. The old translation is
//     shot down before the source frame is released (Close orders
//     shootdown before free). The copy sits inside the transaction
//     deliberately: after revalidation no writable translation of the
//     source exists (step 1's shootdown), and any would-be writer is
//     blocked on this very lock inside its COW upgrade — a writer that
//     already upgraded flipped the permission and aborted us before
//     the copy. Copying between the transactions instead would race
//     such a writer's stores against the copy and then throw the copy
//     away; ordering the copy after revalidation makes "the bytes
//     cannot change under the copy" a lock-ordering fact rather than
//     an eventually-discarded data race.
//
// Abort at any validation step changes nothing structurally: after
// txn 1 the page merely stays write-protected+COW, and the first write
// fault upgrades it back in place (faultMapped's exclusive-anon path),
// exactly like a sparse mprotect. Until that write the page is
// temporarily untouchable for reclaim and collapse (both skip COW) —
// an accepted, self-healing cost of the abort path.
//
// The mapped/unmapped modal invariant is preserved throughout: va stays
// Mapped in every observable state — first to the source (read-only),
// then to the destination — never transiently unmapped.

import (
	"runtime"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

// Migrate implements mem.Pressure: the BBM remap+copy for a batch of
// pinned candidates, sharing one RCU grace period across the whole batch.
func (d *Daemon) Migrate(core int, reqs []mem.MigrateReq) []bool {
	res := make([]bool, len(reqs))
	type protected struct {
		idx  int
		a    *AddrSpace
		perm arch.Perm
		key  arch.ProtKey
	}
	var lives []protected
	for i, req := range reqs {
		a, _ := req.Owner.(*AddrSpace)
		if a == nil || !a.migrateEnter() {
			continue
		}
		p := protected{idx: i, a: a}
		if !protectForMigration(a, core, req, &p.perm, &p.key) {
			a.migrateExit()
			continue
		}
		lives = append(lives, p)
	}
	if len(lives) == 0 {
		return res
	}
	fault.MigratePreBarrier.Pause()
	// One grace period covers every write-protect window in the batch.
	// No PT locks are held here: lock acquisition runs inside an RCU
	// read section, so waiting under a lock could wait on itself.
	d.m.RCU.Synchronize()
	fault.MigratePostBarrier.Pause()
	for _, p := range lives {
		res[p.idx] = remapMigrated(p.a, core, reqs[p.idx], p.perm, p.key)
		p.a.migrateExit()
	}
	return res
}

// protectForMigration is txn 1: validate the hint under the lock and
// write-protect the source PTE. Returns the original permission and
// protection key for the final remap.
func protectForMigration(a *AddrSpace, core int, req mem.MigrateReq, perm *arch.Perm, key *arch.ProtKey) bool {
	va := arch.Vaddr(req.VA)
	c, err := a.Lock(core, va, va+arch.PageSize)
	if err != nil {
		return false
	}
	st, qerr := c.Query(va)
	d := a.m.Phys.Desc(req.Src)
	if qerr != nil || st.Kind != pt.StatusMapped || st.Page() != req.Src ||
		st.Perm&(arch.PermShared|arch.PermCOW) != 0 ||
		d.MapCount() != 1 || d.Ref.Load() != 2 {
		c.Close()
		return false
	}
	*perm, *key = st.Perm, st.Key()
	if !c.writeProtectCOW(va) {
		c.Close()
		return false
	}
	c.needSync = true // the writable translation must be dead on return
	a.m.TLB.NoteMigration()
	c.Close()
	return true
}

// remapMigrated is txn 2: revalidate that the window held (same source
// frame, still exclusive, permission exactly as the protect phase left
// it — any fault-path COW upgrade or concurrent mprotect changes it and
// aborts the migration), copy the page, then switch the PTE to the
// destination frame with the original permission. MapKeyed consumes the
// destination's allocation reference and queues the source's mapping
// reference for release after the shootdown.
func remapMigrated(a *AddrSpace, core int, req mem.MigrateReq, perm arch.Perm, key arch.ProtKey) bool {
	va := arch.Vaddr(req.VA)
	want := perm&^arch.PermWrite | arch.PermCOW
	c, err := a.Lock(core, va, va+arch.PageSize)
	if err != nil {
		return false
	}
	st, qerr := c.Query(va)
	d := a.m.Phys.Desc(req.Src)
	if qerr != nil || st.Kind != pt.StatusMapped || st.Page() != req.Src ||
		st.Perm != want || st.Key() != key ||
		d.MapCount() != 1 || d.Ref.Load() != 2 {
		c.Close()
		return false
	}
	// The window held: the source is read-only on every core and every
	// upgrade path serializes behind the lock we hold, so the bytes are
	// stable under the copy (see the BBM ordering note atop this file).
	copy(a.m.Phys.Data(req.Dst), a.m.Phys.Data(req.Src))
	if c.MapKeyed(va, req.Dst, 1, perm, key) != nil {
		c.Close()
		return false
	}
	c.needSync = true
	c.Close()
	return true
}

// writeProtectCOW rewrites the present 4-KiB leaf at va to read-only +
// COW, preserving everything else in the PTE — the store that opens the
// migration window. Protect cannot express it (it strips COW from
// exclusive anonymous pages by design). Returns false if va's leaf is
// absent or not level 1.
func (c *RCursor) writeProtectCOW(va arch.Vaddr) bool {
	e, err := c.entry(va, 1, false)
	isa := c.a.isa
	if err != nil || e.level != 1 || !isa.IsPresent(e.pte) {
		return false
	}
	newPerm := isa.PermOf(e.pte)&^arch.PermWrite | arch.PermCOW
	c.a.tree.StorePTE(e.pfn, e.idx, isa.WithPerm(e.pte, newPerm, 1))
	c.noteFlush(e.lo(va), 1)
	return true
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
