// Execution-keyed protection (the Okamoto-style extension the paper's
// Section 5 describes): a shared library's private state is accessible
// exactly while the library's own code executes, in whichever protection
// domain calls it — protection follows the code, not the caller.
//
// The scenario: an allocator library with a private free-list segment.
// Any client may call into the library (and the library then manipulates
// its free list on the client's behalf), but no client can corrupt the
// free list directly. Unloading the library revokes the grant, and then
// not even the library's own code reaches the state.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/sasos"
)

func main() {
	k := sasos.New(sasos.DefaultConfig(sasos.ModelDomainPage))

	libCode := k.CreateSegment(4, sasos.SegmentOptions{Name: "liballoc-code"})
	libState := k.CreateSegment(4, sasos.SegmentOptions{Name: "liballoc-freelist"})
	// Executors of the library's code may write its private state.
	if err := k.GrantExecutor(libState, libCode, sasos.RW); err != nil {
		log.Fatal(err)
	}

	clientA := k.CreateDomain()
	clientB := k.CreateDomain()
	for _, c := range []*sasos.Domain{clientA, clientB} {
		k.Attach(c, libCode, sasos.RX) // everyone may call the library
	}

	// libCall simulates a call into the library: the caller's execution
	// site moves into the library code, the library does its work on the
	// private state, and control returns.
	libCall := func(d *sasos.Domain, work func() error) error {
		if err := k.SetExecutionSite(d, libCode.Base()); err != nil {
			return err
		}
		defer k.SetExecutionSite(d, 0) // return to application code
		return work()
	}

	// Client A allocates: the library pushes a record onto its free list.
	err := libCall(clientA, func() error {
		return k.Store(clientA, libState.Base(), 0x1000_0001)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("client A called liballoc: free-list updated under library code")

	// Client B calls too — same library state, different domain.
	err = libCall(clientB, func() error {
		v, err := k.Load(clientB, libState.Base())
		if err != nil {
			return err
		}
		fmt.Printf("client B, inside the library, reads the free list head: %#x\n", v)
		return k.Store(clientB, libState.Base(), v+1)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Outside the library, the state is untouchable — even for clients
	// that were just inside it.
	if err := k.Touch(clientA, libState.Base(), sasos.Load); errors.Is(err, sasos.ErrProtection) {
		fmt.Println("client A outside the library: free list correctly inaccessible")
	} else {
		log.Fatalf("protection hole: %v", err)
	}

	// Unloading the library revokes the grant: from then on even a store
	// made from inside the library's code is denied.
	if err := k.RevokeExecutor(libState, libCode); err != nil {
		log.Fatal(err)
	}
	err = libCall(clientA, func() error {
		return k.Store(clientA, libState.Base(), 0)
	})
	if errors.Is(err, sasos.ErrProtection) {
		fmt.Println("liballoc unloaded: a store from inside its code is denied")
	} else {
		log.Fatalf("protection hole after unload: %v", err)
	}

	fmt.Printf("\nexec grants: %d, revokes: %d, site changes: %d, purges on site change: %d\n",
		k.Counters().Get("kernel.exec_grants"),
		k.Counters().Get("kernel.exec_revokes"),
		k.Counters().Get("kernel.exec_site_changes"),
		k.Counters().Get("kernel.exec_site_purges"))
}
