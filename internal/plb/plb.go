// Package plb implements the Protection Lookaside Buffer of Section 3.2.1:
// a cache of protection-only mappings on a per-domain, per-page basis.
// Each entry grants one protection domain's access rights to one virtual
// protection page; it carries no translation information, which is what
// lets the PLB sit beside a virtually indexed, virtually tagged cache with
// the TLB demoted to a second level off the critical path (Figure 1).
//
// Because protection is decoupled from translation, the PLB's protection
// page size need not equal the translation page size (Section 4.3): a PLB
// may support sub-page entries (for fine-grained uses like DSM and
// transactional locking) and super-page entries (one entry covering a
// whole constant-rights segment), simultaneously.
package plb

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// ErrConfig classifies invalid PLB configurations. errors.Is(err,
// ErrConfig) matches every construction failure; errors.As extracts
// the *ConfigError carrying the offending field.
var ErrConfig = errors.New("plb: invalid config")

// ConfigError is the structured form of a rejected configuration,
// following the kernel.FaultError convention: context fields plus a
// classifying sentinel, all reachable through errors.Is/As.
type ConfigError struct {
	// Field names the Config field that was rejected.
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

func cfgErr(field, format string, args ...any) error {
	return &ConfigError{Field: field, Detail: fmt.Sprintf(format, args...), Sentinel: ErrConfig}
}

// Key identifies a PLB entry: one domain's rights to one protection page
// of a particular size class.
type Key struct {
	Domain addr.DomainID
	// Page is the protection page number: VA >> Shift.
	Page uint64
	// Shift is the log2 protection page size of this entry.
	Shift uint8
}

// Config describes a PLB.
type Config struct {
	// Assoc is the geometry of the underlying structure.
	Assoc assoc.Config
	// Shifts lists the supported protection page sizes (log2, ascending).
	// A single-size PLB lists one shift, typically the base page shift.
	Shifts []uint
}

// DefaultConfig returns a 128-entry fully associative LRU PLB with 4 KB
// protection pages. 128 entries matches the paper's observation that PLB
// entries are ~25% smaller than page-group TLB entries, so a PLB fits
// more entries in the same silicon than the TLB it replaces.
func DefaultConfig() Config {
	return Config{
		Assoc:  assoc.Config{Sets: 1, Ways: 128, Policy: assoc.LRU},
		Shifts: []uint{addr.BasePageShift},
	}
}

// PLB is the protection lookaside buffer. Construct with New. A PLB probes
// every supported size class on lookup, modeling the parallel multi-size
// match of a real multiple-page-size TLB (Talluri et al., cited in §4.3).
type PLB struct {
	cfg    Config
	c      *assoc.Cache[Key, addr.Rights]
	shifts []uint
	// shifts8 mirrors shifts pre-narrowed to the Key width, so the
	// per-access probe loop builds keys without conversions; shift0 is
	// the sole size class of a single-size PLB (the common case), letting
	// Lookup skip the loop entirely.
	shifts8 []uint8
	shift0  uint8

	nHit, nMiss, nInstall, nUpdate, nInval, nPurged, nInspected stats.Handle
	nCorrupted                                                  stats.Handle

	corrupt Corruptor
}

// Corruptor is a chaos-testing hook consulted on every Insert. It sees
// the entry being installed and may return replacement rights with true
// to corrupt the entry in place (modeling a bit flip or stale rights
// latched by glitching hardware). Corrupted installs are counted under
// prefix+".corrupted".
// Production configurations leave it nil; it costs one nil check.
type Corruptor func(k Key, r addr.Rights) (addr.Rights, bool)

// New creates a PLB, recording events in ctrs under the given name prefix
// (e.g. "plb"). An invalid configuration returns a *ConfigError wrapping
// ErrConfig; MustNew panics instead for known-good configurations.
// Counter names are resolved to handles here, once, so the per-access
// paths never hash a counter name.
func New(cfg Config, ctrs *stats.Counters, prefix string) (*PLB, error) {
	if len(cfg.Shifts) == 0 {
		return nil, cfgErr("Shifts", "must list at least one protection page shift")
	}
	shifts := append([]uint(nil), cfg.Shifts...)
	sort.Slice(shifts, func(i, j int) bool { return shifts[i] < shifts[j] })
	for _, s := range shifts {
		if s < addr.MinProtShift || s > addr.MaxProtShift {
			return nil, cfgErr("Shifts", "shift %d outside [%d,%d]", s, addr.MinProtShift, addr.MaxProtShift)
		}
	}
	p := &PLB{
		cfg:    cfg,
		shifts: shifts,
	}
	p.shifts8 = make([]uint8, len(shifts))
	for i, s := range shifts {
		p.shifts8[i] = uint8(s)
	}
	p.shift0 = p.shifts8[0]
	p.c = assoc.NewOwned[Key, addr.Rights](cfg.Assoc, func(k Key) uint64 {
		return k.Page ^ uint64(k.Domain)<<13 ^ uint64(k.Shift)<<29
	}, func(k Key) uint32 { return uint32(k.Domain) })
	p.nHit = ctrs.Handle(prefix + ".hit")
	p.nMiss = ctrs.Handle(prefix + ".miss")
	p.nInstall = ctrs.Handle(prefix + ".install")
	p.nUpdate = ctrs.Handle(prefix + ".update")
	p.nInval = ctrs.Handle(prefix + ".invalidate")
	p.nPurged = ctrs.Handle(prefix + ".purged")
	p.nInspected = ctrs.Handle(prefix + ".inspected")
	p.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return p, nil
}

// MustNew is New for configurations known to be valid (fixed defaults,
// tests); it panics on a config error.
func MustNew(cfg Config, ctrs *stats.Counters, prefix string) *PLB {
	p, err := New(cfg, ctrs, prefix)
	if err != nil {
		panic(err)
	}
	return p
}

// SetCorruptor installs (or, with nil, removes) the corruption hook.
func (p *PLB) SetCorruptor(fn Corruptor) { p.corrupt = fn }

// Capacity returns the total entry capacity.
func (p *PLB) Capacity() int { return p.c.Capacity() }

// Len returns the number of valid entries.
func (p *PLB) Len() int { return p.c.Len() }

// Lookup probes the PLB for (d, va) across all size classes. On a hit it
// returns the entry's rights. Smaller (more specific) protection pages
// take precedence over larger ones, so a sub-page override shadows a
// segment-wide super-page entry.
func (p *PLB) Lookup(d addr.DomainID, va addr.VA) (addr.Rights, bool) {
	if len(p.shifts8) == 1 {
		// Single size class: one probe, no loop.
		k := Key{Domain: d, Page: uint64(va) >> p.shift0, Shift: p.shift0}
		if r, ok := p.c.Lookup(k); ok {
			p.nHit.Inc()
			return r, true
		}
		p.nMiss.Inc()
		return addr.None, false
	}
	for _, shift := range p.shifts8 {
		k := Key{Domain: d, Page: uint64(va) >> shift, Shift: shift}
		if r, ok := p.c.Lookup(k); ok {
			p.nHit.Inc()
			return r, true
		}
	}
	p.nMiss.Inc()
	return addr.None, false
}

// Insert installs rights for (d, va) at the given protection page shift.
// The shift must be one of the configured size classes.
func (p *PLB) Insert(d addr.DomainID, va addr.VA, shift uint, r addr.Rights) {
	p.mustShift(shift)
	k := Key{Domain: d, Page: uint64(va) >> shift, Shift: uint8(shift)}
	p.c.Insert(k, r)
	p.nInstall.Inc()
	if p.corrupt != nil {
		if bad, ok := p.corrupt(k, r); ok {
			p.c.Update(k, bad)
			p.nCorrupted.Inc()
		}
	}
}

func (p *PLB) mustShift(shift uint) {
	for _, s := range p.shifts {
		if s == shift {
			return
		}
	}
	panic(fmt.Sprintf("plb: shift %d not a configured size class %v", shift, p.shifts))
}

// Update changes the rights of the entry covering (d, va) if one is
// resident, preserving its replacement state, and reports whether an entry
// was found. This is the single-entry update that makes per-domain rights
// changes cheap in the domain-page model (Section 4.1.2).
func (p *PLB) Update(d addr.DomainID, va addr.VA, r addr.Rights) bool {
	for _, shift := range p.shifts8 {
		k := Key{Domain: d, Page: uint64(va) >> shift, Shift: shift}
		if p.c.Update(k, r) {
			p.nUpdate.Inc()
			return true
		}
	}
	return false
}

// Invalidate removes any entry covering (d, va), reporting whether one was
// present.
func (p *PLB) Invalidate(d addr.DomainID, va addr.VA) bool {
	found := false
	for _, shift := range p.shifts8 {
		k := Key{Domain: d, Page: uint64(va) >> shift, Shift: shift}
		if p.c.Invalidate(k) {
			found = true
		}
	}
	if found {
		p.nInval.Inc()
	}
	return found
}

// span returns the byte range an entry covers.
func (k Key) span() addr.Range {
	return addr.Range{Start: addr.VA(k.Page << k.Shift), Length: uint64(1) << k.Shift}
}

// UpdateRange rewrites the rights of all of domain d's resident entries
// overlapping the byte range [start, start+length), returning how many
// were updated. Like PurgeRange it must inspect every resident entry —
// the "inspect each entry in the PLB" cost of the Table 1 operations that
// change a domain's rights to a whole segment (GC flip, checkpoint
// restrict) — though the host visits only d's.
func (p *PLB) UpdateRange(d addr.DomainID, start addr.VA, length uint64, r addr.Rights) int {
	rng := addr.Range{Start: start, Length: length}
	updated, inspected := p.c.UpdateOwner(uint32(d),
		func(k Key, _ addr.Rights) bool { return k.span().Overlaps(rng) },
		func(Key, addr.Rights) addr.Rights { return r })
	p.nUpdate.Add(uint64(updated))
	p.nInspected.Add(uint64(inspected))
	return updated
}

// PurgeRange removes all of domain d's entries overlapping the byte range
// [start, start+length), returning how many were removed. This is the
// detach operation of Section 4.1.1: in the worst case it inspects every
// PLB entry; the inspection count is recorded for the cost model.
func (p *PLB) PurgeRange(d addr.DomainID, start addr.VA, length uint64) int {
	r := addr.Range{Start: start, Length: length}
	return p.purged(p.c.PurgeOwner(uint32(d), func(k Key, _ addr.Rights) bool { return k.span().Overlaps(r) }))
}

// PurgeRangeAll removes every domain's entries overlapping the byte
// range (used when a segment is destroyed).
func (p *PLB) PurgeRangeAll(start addr.VA, length uint64) int {
	r := addr.Range{Start: start, Length: length}
	return p.purged(p.c.PurgeIf(func(k Key, _ addr.Rights) bool { return k.span().Overlaps(r) }))
}

// PurgeDomain removes all entries belonging to domain d.
func (p *PLB) PurgeDomain(d addr.DomainID) int {
	return p.purged(p.c.PurgeOwner(uint32(d), nil))
}

// PurgePage removes every domain's entry covering va: needed when a page's
// rights change for all domains or its translation is destroyed.
func (p *PLB) PurgePage(va addr.VA) int {
	return p.purged(p.c.PurgeIf(func(k Key, _ addr.Rights) bool { return k.span().Contains(va) }))
}

// purged counts a purge's removed and inspected entries and returns the
// number removed.
func (p *PLB) purged(removed, inspected int) int {
	p.nPurged.Add(uint64(removed))
	p.nInspected.Add(uint64(inspected))
	return removed
}

// PurgeAll empties the PLB, returning how many entries were dropped.
func (p *PLB) PurgeAll() int {
	n := p.c.PurgeAll()
	p.nPurged.Add(uint64(n))
	return n
}

// HasDomain reports whether any entry of domain d is resident.
func (p *PLB) HasDomain(d addr.DomainID) bool { return p.c.HasOwner(uint32(d)) }

// ForEach visits all resident entries until fn returns false.
func (p *PLB) ForEach(fn func(Key, addr.Rights) bool) { p.c.ForEach(fn) }

// EntryBits returns the architectural width of one PLB entry in bits for a
// fully associative organization: VPN tag + PD-ID + rights (Figure 1).
// It is used by the equal-silicon comparison of Section 4.
func EntryBits(vaBits, pageShift, domainBits, rightsBits int) int {
	return (vaBits - pageShift) + domainBits + rightsBits
}
