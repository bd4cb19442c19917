package ptable

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// ErrConfig classifies invalid page-table configurations. errors.Is
// matches every construction failure; errors.As extracts the
// *ConfigError carrying the offending parameter.
var ErrConfig = errors.New("ptable: invalid config")

// ConfigError is the structured form of a rejected configuration,
// following the kernel.FaultError convention: context fields plus a
// classifying sentinel, reachable through errors.Is/As.
type ConfigError struct {
	// Field names the rejected parameter.
	Field string
	// Detail says what was wrong with it.
	Detail string
	// Sentinel classifies the failure (ErrConfig).
	Sentinel error
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Sentinel.Error(), e.Field, e.Detail)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *ConfigError) Unwrap() error { return e.Sentinel }

// InvertedTable is an inverted (frame-indexed) page table with a hash
// anchor table — the organization of the IBM 801 that Section 3.1 cites
// as well suited to single address space systems: its size is
// proportional to physical memory, not to the (vast, sparse) virtual
// space, and it holds exactly one entry per mapped page, shared by all
// protection domains.
//
// Lookup hashes the VPN into the anchor table and follows the collision
// chain through the frame entries; the probe counts expose the software
// walk cost as the table loads up.
type InvertedTable struct {
	anchors []int32 // hash bucket -> entry index (frame), -1 if empty
	entries []invEntry
	next    []int32 // collision chain, indexed by frame

	lookups uint64
	probes  uint64
}

type invEntry struct {
	vpn   addr.VPN
	valid bool
}

// NewInvertedTable creates a table for nframes physical frames with
// 2*nframes hash anchors (load factor <= 0.5 when full). A frame count
// below one returns a *ConfigError wrapping ErrConfig.
func NewInvertedTable(nframes int) (*InvertedTable, error) {
	if nframes < 1 {
		return nil, &ConfigError{
			Field:    "nframes",
			Detail:   fmt.Sprintf("inverted table needs at least one frame, got %d", nframes),
			Sentinel: ErrConfig,
		}
	}
	nAnchors := 2 * nframes
	t := &InvertedTable{
		anchors: make([]int32, nAnchors),
		entries: make([]invEntry, nframes),
		next:    make([]int32, nframes),
	}
	for i := range t.anchors {
		t.anchors[i] = -1
	}
	for i := range t.next {
		t.next[i] = -1
	}
	return t, nil
}

func (t *InvertedTable) bucket(vpn addr.VPN) int {
	h := uint64(vpn)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(t.anchors)))
}

// Map establishes vpn → pfn. One translation per page and one page per
// frame, as in any single address space table.
func (t *InvertedTable) Map(vpn addr.VPN, pfn addr.PFN) error {
	if int(pfn) >= len(t.entries) {
		return fmt.Errorf("ptable: frame %d outside inverted table (%d frames)", pfn, len(t.entries))
	}
	if t.entries[pfn].valid {
		return fmt.Errorf("ptable: frame %d already holds vpn %#x", pfn, uint64(t.entries[pfn].vpn))
	}
	if _, ok := t.Lookup(vpn); ok {
		return fmt.Errorf("ptable: vpn %#x already mapped", uint64(vpn))
	}
	b := t.bucket(vpn)
	t.entries[pfn] = invEntry{vpn: vpn, valid: true}
	t.next[pfn] = t.anchors[b]
	t.anchors[b] = int32(pfn)
	return nil
}

// Lookup returns the frame mapping vpn, counting the lookup and one
// probe per chain entry it visits.
func (t *InvertedTable) Lookup(vpn addr.VPN) (addr.PFN, bool) {
	t.lookups++
	for cur := t.anchors[t.bucket(vpn)]; cur != -1; cur = t.next[cur] {
		t.probes++
		if t.entries[cur].vpn == vpn {
			return addr.PFN(cur), true
		}
	}
	return 0, false
}

// ProbeStats returns the lookups made (Map's check for an existing
// translation included) and the chain probes they took; probes/lookups
// is the software walk cost as load rises.
func (t *InvertedTable) ProbeStats() (lookups, probes uint64) { return t.lookups, t.probes }
