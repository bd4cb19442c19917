// Package oracle is a shadow reference model for the simulator's
// protection state: it rebuilds the rights every (domain, page) pair
// should have from the kernel's primitive authority records (segment
// attachments, per-page overrides, execution-keyed grants) and checks
// that everything downstream agrees — the kernel's own ResolveRights,
// and every unit of authority cached at a shootdown seat. A seat is a
// CPU's machine (PLB, translation TLB, page-group TLB and checker,
// ASID-tagged TLB, virtually tagged data cache) or a device translation
// agent (IOTLB, group set); each lists what it caches as normalized
// machine.Entry records, so one loop audits them all.
//
// The oracle is the detector the chaos campaign (internal/chaos) runs
// after each fault scenario: injected hardware corruption must surface
// as oracle violations while armed, and RecoverHardware must leave the
// oracle clean. The kernel's lockstep checker (FuzzLockstep) runs Verify
// after every call and VerifyDestroyed after every destroy.
//
// All checks are read-only with respect to the kernel's protection
// state: they use side-effect-free kernel queries (ResolveRights,
// Translate, PageInfo, DomainGroup) and seat enumerations, and never
// Touch, fault, or bump per-reference counters. SweepVerdicts is the
// one exception — it issues real accesses — and says so.
package oracle

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
)

// maxSampledPages bounds the per-segment page sweep so verifying a
// kernel with multi-thousand-page workload segments stays cheap; pages
// are sampled at a fixed stride, so the choice is deterministic.
const maxSampledPages = 64

// Violation is one disagreement between the oracle's reference model
// and the kernel or hardware state.
type Violation struct {
	// Where names what disagreed: "resolve" (the kernel's own
	// resolution), "groups" (the rights a page-group kernel's page
	// records and group sets encode), the label of the seat structure
	// holding a bad entry
	// (machine.Entry.Where: "plb", "trans-tlb", "pg-tlb", "checker",
	// "asid-tlb", "iotlb", "iotlb-group"), "directory" (a cached entry
	// the sharer directory fails to cover), "destroy" (residual
	// authority of a destroyed domain) or "verdict" (an access outcome,
	// see SweepVerdicts).
	Where string
	// Seat names the seat whose structure disagreed: "cpu N" or a
	// device's name. Empty for kernel-level findings.
	Seat   string
	Domain addr.DomainID
	VPN    addr.VPN
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string {
	if v.Seat != "" {
		return fmt.Sprintf("%s: %s domain %d page %#x: %s", v.Where, v.Seat, v.Domain, uint64(v.VPN), v.Detail)
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
//     reconstruction for every domain and (sampled) segment page, and
//     so must, on a page-group kernel, the rights the page's group and
//     the domain's membership of it encode.
//   - Every entry a trusted seat caches must match current authority
//     (audit.authority) and be covered by the sharer directory
//     (audit.directory).
//
// Violations never perturbs protection or translation state and is safe
// to call mid-run, between any two kernel operations.
func Violations(k *kernel.Kernel) []Violation {
	a := newAudit(k)
	a.out = resolveViolations(k)
	a.seats(func(s machine.Seat) {
		var supers []machine.Entry
		s.Entries(func(e machine.Entry) bool {
			if e.Kind == machine.DomainPage && e.Shift > a.geo {
				supers = append(supers, e)
			} else {
				a.authority(e)
			}
			a.directory(e)
			return true
		})
		a.superPages(s, supers)
	})
	return a.out
}

// audit walks the trusted seats and collects findings against them.
type audit struct {
	k    *kernel.Kernel
	geo  uint // the translation page shift
	seat int  // the seat being walked
	out  []Violation
}

func newAudit(k *kernel.Kernel) *audit {
	return &audit{k: k, geo: k.Geometry().Shift()}
}

// seats calls fn with the hardware of every trusted seat, CPUs first,
// then devices. Untrusted seats — quarantined, degraded, or marked
// stale by a skipped invalidation — are exempt: an untrusted CPU is
// fenced out of domain execution (the kernel bulk-invalidates it
// before it runs anything) and an untrusted device's DMA aborts, so
// their stale entries are dormant state, not live authority.
// ConvergeProtection rejoins them, after which every seat is checked
// again.
func (a *audit) seats(fn func(machine.Seat)) {
	for t := range a.k.NumSeats() {
		if a.k.SeatTrusted(t) {
			a.seat = t
			fn(a.k.Seat(t))
		}
	}
}

// note records a finding on the seat being walked.
func (a *audit) note(where string, d addr.DomainID, vpn addr.VPN, format string, args ...any) {
	a.out = append(a.out, Violation{
		Where: where, Seat: a.k.SeatName(a.seat), Domain: d, VPN: vpn,
		Detail: fmt.Sprintf(format, args...),
	})
}

// vpn returns the translation page an entry names: the first page a
// super-page entry covers, the page containing a sub-page entry.
func (a *audit) vpn(e machine.Entry) addr.VPN {
	if e.Shift >= a.geo {
		return addr.VPN(e.Page << (e.Shift - a.geo))
	}
	return addr.VPN(e.Page >> (a.geo - e.Shift))
}

// authority holds one entry to current kernel authority. Domain-page
// entries at the translation page size must match ResolveRights
// exactly. Entries below it are experiment-managed fine-grained rights
// (DSM, transactional locking) with no single kernel record to compare
// against, so only their containment in the page's authority is
// checked; super-page entries go through superPages. Group-page entries
// must match the kernel's page records, memberships the domain's group
// set, and every cached frame the kernel's translation.
func (a *audit) authority(e machine.Entry) {
	k := a.k
	vpn := a.vpn(e)
	switch e.Kind {
	case machine.DomainPage:
		want, cacheable, ok := k.ResolveRights(e.Domain, vpn)
		if e.Shift < a.geo {
			if !ok || e.Rights&^want != 0 {
				a.note(e.Where, e.Domain, vpn, "sub-page entry (shift %d) holds %v beyond authority %v",
					e.Shift, e.Rights, want)
			}
		} else if !ok || !cacheable || want != e.Rights {
			a.note(e.Where, e.Domain, vpn, "entry holds %v, authority %v (cacheable=%v, ok=%v)",
				e.Rights, want, cacheable, ok)
		}
	case machine.GroupPage:
		aid, rights, ok := k.PageInfo(vpn)
		if !ok || e.Group != aid || e.Rights != rights {
			a.note(e.Where, 0, vpn, "entry holds (aid=%d, %v), kernel says (aid=%d, %v, ok=%v)",
				e.Group, e.Rights, aid, rights, ok)
		}
	case machine.Membership:
		if e.Group == addr.GlobalGroup {
			break
		}
		if has, wd := k.DomainGroup(e.Domain, e.Group); !has || e.WriteDisable != wd {
			a.note(e.Where, e.Domain, 0, "group %d resident (writeDisable=%v), domain's set says (member=%v, writeDisable=%v)",
				e.Group, e.WriteDisable, has, wd)
		}
	}
	if e.HasFrame {
		if pfn, mapped := k.Translate(vpn); !mapped || pfn != e.Frame {
			a.note(e.Where, e.Domain, vpn, "entry maps to frame %d, kernel table says (%d, mapped=%v)",
				e.Frame, pfn, mapped)
		}
	}
}

// superPages checks one seat's super-page entries. Each covers
// 2^(shift-geo) translation pages and must match ResolveRights on every
// covered in-segment page that no base-page entry of the same domain
// shadows; the base entries are gathered only when supers exist.
func (a *audit) superPages(s machine.Seat, supers []machine.Entry) {
	if len(supers) == 0 {
		return
	}
	type key struct {
		d    addr.DomainID
		page uint64
	}
	base := make(map[key]bool)
	s.Entries(func(e machine.Entry) bool {
		if e.Kind == machine.DomainPage && e.Shift == a.geo {
			base[key{e.Domain, e.Page}] = true
		}
		return true
	})
	for _, e := range supers {
		first := a.vpn(e)
		for i := range uint64(1) << (e.Shift - a.geo) {
			vpn := first + addr.VPN(i)
			if a.k.FindSegment(a.k.Geometry().Base(vpn)) == nil || base[key{e.Domain, uint64(vpn)}] {
				continue // past the segment's end, or shadowed by a more specific entry
			}
			want, cacheable, ok := a.k.ResolveRights(e.Domain, vpn)
			if !ok || !cacheable || want != e.Rights {
				a.note(e.Where, e.Domain, vpn, "super-page entry (shift %d) holds %v, authority %v (cacheable=%v, ok=%v)",
					e.Shift, e.Rights, want, cacheable, ok)
			}
		}
	}
}

// directory holds one entry to the kernel's sharer directory, which
// must be a superset of live hardware state: a seat caching an entry
// that names a domain or a page must be in that domain's residency set
// or that page's sharer set, or a shootdown targeted from the set could
// miss it. The converse is allowed: sets may conservatively name seats
// whose entries aged out (the directory withdraws only on provable
// emptiness). Super- and sub-page entries are recorded against their
// install page only, so only the domain set answers for them.
// Memberships are exempt: group loads and revocations target seats by
// the domain they execute or act for, not by directory membership.
// Data-cache lines count on the page axis: a virtually tagged line
// hits without consulting translation, so the unmap that flushes it
// must reach the seat.
func (a *audit) directory(e machine.Entry) {
	if e.Kind == machine.Membership {
		return
	}
	vpn := a.vpn(e)
	if e.Kind == machine.DomainPage && !a.k.DomainResident(e.Domain, a.seat) {
		a.note("directory", e.Domain, vpn, "%s entry resident but seat missing from domain residency set", e.Where)
	}
	if e.Shift == a.geo && !a.k.PageResident(vpn, a.seat) {
		a.note("directory", e.Domain, vpn, "%s entry resident but seat missing from page sharer set", e.Where)
	}
}

// Verify runs Violations and returns an error describing them if any
// were found. It is the chaos campaign's post-recovery gate.
func Verify(k *kernel.Kernel) error {
	return report(Violations(k), "oracle: %d violation(s):")
}

// report wraps violations in an error headed by header (formatted with
// their count), listing at most eight; nil when there are none.
func report(vs []Violation, header string, args ...any) error {
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, header, append(args, len(vs))...)
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
// independent reconstruction for every domain and sampled page, and on
// page-group kernels what the page-group tables encode too.
func resolveViolations(k *kernel.Kernel) []Violation {
	var out []Violation
	pg := k.Model() == kernel.ModelPageGroup
	for _, d := range k.Domains() {
		for _, s := range k.Segments() {
			for _, vpn := range samplePages(s) {
				want, wantRec := Rights(k, d, vpn)
				if pg {
					if got := groupRights(k, d.ID, vpn); got != want {
						out = append(out, Violation{
							Where: "groups", Domain: d.ID, VPN: vpn,
							Detail: fmt.Sprintf("page group and membership grant %v, oracle %v", got, want),
						})
					}
				}
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

// groupRights is what the page-group tables grant domain d on page vpn:
// the rights field of the page's group (PageInfo) to a member, without
// write to a write-disabled one, and nothing to a domain outside it
// (DomainGroup).
func groupRights(k *kernel.Kernel, d addr.DomainID, vpn addr.VPN) addr.Rights {
	g, field, _ := k.PageInfo(vpn)
	switch member, wd := k.DomainGroup(d, g); {
	case !member:
		return addr.None
	case wd:
		return field.WithoutWrite()
	}
	return field
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
