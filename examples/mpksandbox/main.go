// mpksandbox: use Intel MPK protection keys (§6.7's MMU-feature port)
// together with the transactional interface to build a crude in-process
// sandbox: a "secret" region is tagged with its own protection key and
// toggled read-only/invisible without per-page mprotect storms — the
// use case protection keys exist for. Also shows W^X flipping via
// mprotect inside a single transaction.
//
//	go run ./examples/mpksandbox
package main

import (
	"fmt"
	"log"

	"cortenmm"
)

func main() {
	machine := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2})
	as, err := cortenmm.New(cortenmm.Options{
		Machine:  machine,
		Protocol: cortenmm.ProtocolAdv,
		ISA:      cortenmm.X8664(true), // MPK enabled
	})
	if err != nil {
		log.Fatal(err)
	}
	defer as.Destroy(0)

	// A secret region and a scratch region.
	secret, _ := as.Mmap(0, 4*cortenmm.PageSize, cortenmm.PermRW, 0)
	scratch, _ := as.Mmap(0, 4*cortenmm.PageSize, cortenmm.PermRW, 0)
	as.Store(0, secret, 0x42)
	as.Store(0, scratch, 0x17)

	// Tag the secret region with protection key 5 in one transaction;
	// already-mapped pages get the key in their PTEs, unfaulted pages
	// inherit it via the per-PTE metadata.
	tx, err := as.Lock(0, secret, secret+4*cortenmm.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.SetProtKey(secret, secret+4*cortenmm.PageSize, 5); err != nil {
		log.Fatal(err)
	}
	st, _ := tx.Query(secret)
	tx.Close()
	fmt.Printf("secret region tagged: key=%d kind=%v\n", st.Key(), st.Kind)

	// Faulting in a previously untouched page carries the key along.
	as.Store(0, secret+2*cortenmm.PageSize, 0x43)
	tx, _ = as.Lock(0, secret, secret+4*cortenmm.PageSize)
	st2, _ := tx.Query(secret + 2*cortenmm.PageSize)
	tx.Close()
	fmt.Printf("late-faulted page: key=%d (inherited from metadata)\n", st2.Key())

	// W^X: flip the scratch region to execute-only in ONE transaction —
	// the query+protect pair is atomic, so no thread can observe the
	// region both writable and executable.
	tx, _ = as.Lock(0, scratch, scratch+4*cortenmm.PageSize)
	if err := tx.Protect(scratch, scratch+4*cortenmm.PageSize, cortenmm.PermRead|cortenmm.PermExec); err != nil {
		log.Fatal(err)
	}
	tx.Close()
	fmt.Printf("scratch W->X flip: write now -> %v\n", as.Touch(0, scratch, cortenmm.AccessWrite))
	fmt.Printf("scratch W->X flip: exec now  -> %v\n", as.Touch(0, scratch, cortenmm.AccessExec))

	// And back (the mapcount==1 pages become writable in place).
	tx, _ = as.Lock(0, scratch, scratch+4*cortenmm.PageSize)
	_ = tx.Protect(scratch, scratch+4*cortenmm.PageSize, cortenmm.PermRW)
	tx.Close()
	b, _ := as.Load(0, scratch)
	fmt.Printf("flip back: data intact = %#x, write -> %v\n", b, as.Touch(0, scratch, cortenmm.AccessWrite))
}
