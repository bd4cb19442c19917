// Package oracle is a shadow reference model for the simulator's
// protection state: it rebuilds the rights every (domain, page) pair
// should have from the kernel's primitive authority records (segment
// attachments, per-page overrides, execution-keyed grants) and checks
// that everything downstream agrees — the kernel's own ResolveRights,
// and every entry resident in the machines' protection and translation
// hardware (PLB, translation TLB, page-group TLB, page-group checker,
// ASID-tagged TLB).
//
// The oracle is the detector the chaos campaign (internal/chaos) runs
// after each fault scenario: injected hardware corruption must surface
// as oracle violations while armed, and RecoverHardware must leave the
// oracle clean. It is also the engine behind the kernel's invariant
// tests, which are thin wrappers over AuthorityFuzz and Verify.
//
// All checks are read-only with respect to the kernel's protection
// state: they use side-effect-free kernel queries (ResolveRights,
// Translate, PageInfo on resident entries) and never Touch, fault, or
// bump per-reference counters. SweepVerdicts is the one exception — it
// issues real accesses — and says so.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/plb"
	"repro/internal/tlb"
)

// maxSampledPages bounds the per-segment page sweep so verifying a
// kernel with multi-thousand-page workload segments stays cheap; pages
// are sampled at a fixed stride, so the choice is deterministic.
const maxSampledPages = 64

// Violation is one disagreement between the oracle's reference model
// and the kernel or hardware state.
type Violation struct {
	// Where names the structure that disagreed: "resolve", "plb",
	// "trans-tlb", "pg-tlb", "checker", "asid-tlb", "directory" (a
	// hardware entry the sharer directory fails to cover), "verdict"
	// (an access outcome, see SweepVerdicts), or "iotlb" /
	// "iotlb-group" (a device translation agent's cached authority —
	// see device.go).
	Where string
	// CPU is the CPU whose private structure disagreed (0 for kernel-level
	// checks and on uniprocessors). For device findings it is the
	// device's interconnect seat.
	CPU int
	// Device names the device translation agent whose IOTLB disagreed;
	// empty for CPU and kernel-level findings.
	Device string
	Domain addr.DomainID
	VPN    addr.VPN
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string {
	if v.Device != "" {
		return fmt.Sprintf("%s: device %s (seat %d) domain %d page %#x: %s",
			v.Where, v.Device, v.CPU, v.Domain, uint64(v.VPN), v.Detail)
	}
	if v.CPU != 0 {
		return fmt.Sprintf("%s: cpu %d domain %d page %#x: %s", v.Where, v.CPU, v.Domain, uint64(v.VPN), v.Detail)
	}
	return fmt.Sprintf("%s: domain %d page %#x: %s", v.Where, v.Domain, uint64(v.VPN), v.Detail)
}

// Rights rebuilds domain d's rights to vpn from the kernel's primitive
// authority records, independently of ResolveRights: a per-page
// override wins, else the attachment rights of the containing segment,
// and execution-keyed grants are unioned in. The bool reports whether
// the domain holds any record for the page (which is exactly when the
// kernel lets hardware cache the rights).
func Rights(k *kernel.Kernel, d *kernel.Domain, vpn addr.VPN) (addr.Rights, bool) {
	s := k.FindSegment(k.Geometry().Base(vpn))
	if s == nil {
		return addr.None, false
	}
	execR, execOK := k.ExecutorRights(d, vpn)
	if r, ok := d.PageOverride(vpn); ok {
		return r | execR, true
	}
	if r, ok := d.Attached(s); ok {
		return r | execR, true
	}
	if execOK {
		return execR, true
	}
	return addr.None, false
}

// Violations checks every protection invariant the oracle knows against
// kernel k and returns the disagreements (nil when clean):
//
//   - ResolveRights must agree with the oracle's independent authority
//     reconstruction for every domain and (sampled) segment page.
//   - Every valid hardware entry must match current authority: PLB
//     entries (base and super-page) against ResolveRights, translation
//     TLB entries against the kernel's translation table, page-group
//     TLB entries against the kernel's page records, resident checker
//     groups against the executing domain's group set, and ASID-TLB
//     entries against both rights and translation.
//
// Violations never perturbs protection or translation state and is safe
// to call mid-run, between any two kernel operations.
func Violations(k *kernel.Kernel) []Violation {
	var out []Violation
	out = append(out, resolveViolations(k)...)
	// Every CPU's private structures are held to the same authority: a
	// shootdown that failed to reach a remote CPU shows up here as that
	// CPU's stale entry. Untrusted CPUs — quarantined, degraded, or
	// marked stale by a skipped invalidation — are exempt: they are
	// fenced out of domain execution (the kernel bulk-invalidates them
	// before they run anything), so their stale entries are dormant
	// state, not live authority. ConvergeProtection rejoins them, after
	// which this check applies to every CPU again.
	for i := 0; i < k.NumCPUs(); i++ {
		if !k.CPUTrusted(i) {
			continue
		}
		var vs []Violation
		switch {
		case k.PLBMachineAt(i) != nil:
			vs = append(vs, plbViolations(k, k.PLBMachineAt(i))...)
			vs = append(vs, transTLBViolations(k, k.PLBMachineAt(i))...)
			vs = append(vs, plbDirectoryViolations(k, i, k.PLBMachineAt(i))...)
		case k.PGMachineAt(i) != nil:
			vs = append(vs, pgViolations(k, k.PGMachineAt(i))...)
			vs = append(vs, pgDirectoryViolations(k, i, k.PGMachineAt(i))...)
		case k.ConvMachineAt(i) != nil:
			vs = append(vs, convViolations(k, k.ConvMachineAt(i))...)
			vs = append(vs, convDirectoryViolations(k, i, k.ConvMachineAt(i))...)
		}
		for j := range vs {
			vs[j].CPU = i
		}
		out = append(out, vs...)
	}
	// Device translation agents are protection hardware too: every
	// trusted device's IOTLB is audited against the same authority
	// (device.go).
	out = append(out, deviceViolations(k)...)
	return out
}

// Verify runs Violations and returns an error describing them if any
// were found. It is the chaos campaign's post-recovery gate.
func Verify(k *kernel.Kernel) error {
	vs := Violations(k)
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d violation(s):", len(vs))
	for i, v := range vs {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(vs)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

// samplePages returns up to maxSampledPages page VPNs of the segment at
// a fixed stride (all pages for small segments), always including the
// first and last page.
func samplePages(s *kernel.Segment) []addr.VPN {
	n := s.NumPages()
	if n <= maxSampledPages {
		out := make([]addr.VPN, 0, n)
		for i := uint64(0); i < n; i++ {
			out = append(out, s.PageVPN(i))
		}
		return out
	}
	stride := n / maxSampledPages
	out := make([]addr.VPN, 0, maxSampledPages+1)
	for i := uint64(0); i < n; i += stride {
		out = append(out, s.PageVPN(i))
	}
	if last := s.PageVPN(n - 1); len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// resolveViolations cross-checks ResolveRights against the oracle's
// independent reconstruction for every domain and sampled page.
func resolveViolations(k *kernel.Kernel) []Violation {
	var out []Violation
	for _, d := range k.Domains() {
		for _, s := range k.Segments() {
			for _, vpn := range samplePages(s) {
				want, wantRec := Rights(k, d, vpn)
				got, cacheable, ok := k.ResolveRights(d.ID, vpn)
				if !ok {
					out = append(out, Violation{
						Where: "resolve", Domain: d.ID, VPN: vpn,
						Detail: "in-segment page reported outside all segments",
					})
					continue
				}
				if got != want || cacheable != wantRec {
					out = append(out, Violation{
						Where: "resolve", Domain: d.ID, VPN: vpn,
						Detail: fmt.Sprintf("ResolveRights = (%v, cacheable=%v), oracle = (%v, record=%v)",
							got, cacheable, want, wantRec),
					})
				}
			}
		}
	}
	return out
}

// plbViolations checks every resident PLB entry against authority.
// Base-page entries must match ResolveRights exactly. Super-page
// entries must match for every covered in-segment page that is not
// shadowed by a (more specific) base-page entry. Entries below the
// translation page size are experiment-managed fine-grained rights
// (DSM, transactional locking) with no single kernel record to compare
// against, so only their containment in a covering authority is checked.
func plbViolations(k *kernel.Kernel, m *machine.PLBMachine) []Violation {
	var out []Violation
	geoShift := k.Geometry().Shift()
	// First pass: index base-shift entries so super-page checks can
	// honor shadowing.
	base := make(map[plb.Key]bool)
	m.PLB().ForEach(func(key plb.Key, _ addr.Rights) bool {
		if uint(key.Shift) == geoShift {
			base[key] = true
		}
		return true
	})
	m.PLB().ForEach(func(key plb.Key, r addr.Rights) bool {
		switch {
		case uint(key.Shift) == geoShift:
			vpn := addr.VPN(key.Page)
			want, cacheable, ok := k.ResolveRights(key.Domain, vpn)
			if !ok || !cacheable || want != r {
				out = append(out, Violation{
					Where: "plb", Domain: key.Domain, VPN: vpn,
					Detail: fmt.Sprintf("entry holds %v, authority %v (cacheable=%v, ok=%v)",
						r, want, cacheable, ok),
				})
			}
		case uint(key.Shift) > geoShift:
			// One super-page entry covers 2^(shift-geo) translation pages.
			span := uint64(1) << (uint(key.Shift) - geoShift)
			first := addr.VPN(key.Page << (uint(key.Shift) - geoShift))
			for i := uint64(0); i < span; i++ {
				vpn := first + addr.VPN(i)
				if k.FindSegment(k.Geometry().Base(vpn)) == nil {
					continue // covers past the segment's end
				}
				if base[plb.Key{Domain: key.Domain, Page: uint64(vpn), Shift: uint8(geoShift)}] {
					continue // shadowed by a more specific entry
				}
				want, cacheable, ok := k.ResolveRights(key.Domain, vpn)
				if !ok || !cacheable || want != r {
					out = append(out, Violation{
						Where: "plb", Domain: key.Domain, VPN: vpn,
						Detail: fmt.Sprintf("super-page entry (shift %d) holds %v, authority %v (cacheable=%v, ok=%v)",
							key.Shift, r, want, cacheable, ok),
					})
				}
			}
		default:
			// Sub-page entry: its rights must not exceed some authority
			// over the containing translation page for the domain.
			vpn := addr.VPN(key.Page >> (geoShift - uint(key.Shift)))
			want, _, ok := k.ResolveRights(key.Domain, vpn)
			if !ok || r&^want != 0 {
				out = append(out, Violation{
					Where: "plb", Domain: key.Domain, VPN: vpn,
					Detail: fmt.Sprintf("sub-page entry (shift %d) holds %v beyond authority %v",
						key.Shift, r, want),
				})
			}
		}
		return true
	})
	return out
}

// transTLBViolations checks the PLB machine's translation-only TLB
// against the kernel's translation table.
func transTLBViolations(k *kernel.Kernel, m *machine.PLBMachine) []Violation {
	var out []Violation
	m.TLB().ForEach(func(vpn addr.VPN, e tlb.TransEntry) bool {
		pfn, ok := k.Translate(vpn)
		if !ok || pfn != e.PFN {
			out = append(out, Violation{
				Where: "trans-tlb", VPN: vpn,
				Detail: fmt.Sprintf("entry maps to frame %d, kernel table says (%d, mapped=%v)",
					e.PFN, pfn, ok),
			})
		}
		return true
	})
	return out
}

// pgViolations checks the page-group TLB against the kernel's page
// records and the resident checker groups against the executing
// domain's group set.
func pgViolations(k *kernel.Kernel, m *machine.PGMachine) []Violation {
	var out []Violation
	m.TLB().ForEach(func(vpn addr.VPN, e tlb.PGEntry) bool {
		aid, rights, ok := k.PageInfo(vpn)
		if !ok || e.AID != aid || e.Rights != rights {
			out = append(out, Violation{
				Where: "pg-tlb", VPN: vpn,
				Detail: fmt.Sprintf("entry holds (aid=%d, %v), kernel says (aid=%d, %v, ok=%v)",
					e.AID, e.Rights, aid, rights, ok),
			})
		}
		if pfn, mapped := k.Translate(vpn); !mapped || pfn != e.PFN {
			out = append(out, Violation{
				Where: "pg-tlb", VPN: vpn,
				Detail: fmt.Sprintf("entry maps to frame %d, kernel table says (%d, mapped=%v)",
					e.PFN, pfn, mapped),
			})
		}
		return true
	})
	cur := m.Domain()
	m.Checker().ForEach(func(g addr.GroupID, wd bool) bool {
		if g == addr.GlobalGroup {
			return true
		}
		has, wantWD := k.DomainGroup(cur, g)
		if !has || wd != wantWD {
			out = append(out, Violation{
				Where: "checker", Domain: cur,
				Detail: fmt.Sprintf("group %d resident (writeDisable=%v), domain's set says (member=%v, writeDisable=%v)",
					g, wd, has, wantWD),
			})
		}
		return true
	})
	return out
}

// convViolations checks the conventional machine's ASID-tagged combined
// TLB: each entry's rights against the tagged domain's authority and
// its translation against the kernel's table.
func convViolations(k *kernel.Kernel, m *machine.ConventionalMachine) []Violation {
	var out []Violation
	m.TLB().ForEach(func(key tlb.ASIDKey, e tlb.ASIDEntry) bool {
		d := addr.DomainID(key.AS)
		want, cacheable, ok := k.ResolveRights(d, key.VPN)
		if !ok || !cacheable || want != e.Rights {
			out = append(out, Violation{
				Where: "asid-tlb", Domain: d, VPN: key.VPN,
				Detail: fmt.Sprintf("entry holds %v, authority %v (cacheable=%v, ok=%v)",
					e.Rights, want, cacheable, ok),
			})
		}
		if pfn, mapped := k.Translate(key.VPN); !mapped || pfn != e.PFN {
			out = append(out, Violation{
				Where: "asid-tlb", Domain: d, VPN: key.VPN,
				Detail: fmt.Sprintf("entry maps to frame %d, kernel table says (%d, mapped=%v)",
					e.PFN, pfn, mapped),
			})
		}
		return true
	})
	return out
}

// SweepVerdicts issues real accesses — every domain, every (sampled)
// segment page, load and store — and checks that each verdict (allowed
// or denied) matches the oracle's authority. Unlike Violations it
// perturbs machine state (refills, faults, frame allocations), so call
// it last.
//
// Segments with user-level fault handlers are skipped: a handler may
// legitimately grant rights during delivery, so the pre-access
// authority does not predict the verdict. Denials caused purely by
// frame exhaustion (mem.ErrOutOfFrames) are not verdicts about
// protection and are tolerated.
func SweepVerdicts(k *kernel.Kernel) []Violation {
	var out []Violation
	for _, d := range k.Domains() {
		for _, s := range k.Segments() {
			if s.HasHandler() {
				continue
			}
			for _, vpn := range samplePages(s) {
				va := k.Geometry().Base(vpn)
				want, _ := Rights(k, d, vpn)
				for _, kind := range []addr.AccessKind{addr.Load, addr.Store} {
					err := k.Touch(d, va, kind)
					switch {
					case want.Allows(kind) && err != nil && !errors.Is(err, mem.ErrOutOfFrames):
						out = append(out, Violation{
							Where: "verdict", Domain: d.ID, VPN: vpn,
							Detail: fmt.Sprintf("%v denied despite authority %v: %v", kind, want, err),
						})
					case !want.Allows(kind) && err == nil:
						out = append(out, Violation{
							Where: "verdict", Domain: d.ID, VPN: vpn,
							Detail: fmt.Sprintf("%v allowed despite authority %v", kind, want),
						})
					}
				}
			}
		}
	}
	return out
}
