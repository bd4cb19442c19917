// Package sasos is the public API of the single address space operating
// system reproduction (Koldinger, Chase & Eggers, ASPLOS 1992): a
// simulated 64-bit single-address-space machine and kernel with two
// protection architectures — the Protection Lookaside Buffer
// (domain-page model, Figure 1) and the PA-RISC page-group model
// (Figure 2).
//
// Quick start:
//
//	k := sasos.New(sasos.DefaultConfig(sasos.ModelDomainPage))
//	app := k.CreateDomain()
//	seg := k.CreateSegment(16, sasos.SegmentOptions{Name: "heap"})
//	k.Attach(app, seg, sasos.RW)
//	err := k.Store(app, seg.Base(), 42)
//
// The package re-exports the stable surface of the internal packages;
// see the repository's examples/ directory for complete programs and
// cmd/tablegen for the experiment harness that regenerates every table
// in EXPERIMENTS.md.
package sasos

import (
	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Address model.
type (
	// VA is a 64-bit global virtual address.
	VA = addr.VA
	// VPN is a virtual page number.
	VPN = addr.VPN
	// Rights is the read/write/execute access rights vector.
	Rights = addr.Rights
	// AccessKind classifies a memory reference.
	AccessKind = addr.AccessKind
	// DomainID names a protection domain.
	DomainID = addr.DomainID
)

// Rights values.
const (
	None    = addr.None
	Read    = addr.Read
	Write   = addr.Write
	Execute = addr.Execute
	RW      = addr.RW
	RX      = addr.RX
	RWX     = addr.RWX
)

// Access kinds.
const (
	Load  = addr.Load
	Store = addr.Store
	Fetch = addr.Fetch
)

// Kernel and protection model.
type (
	// Kernel is a single address space OS instance bound to a machine.
	Kernel = kernel.Kernel
	// Domain is a protection domain.
	Domain = kernel.Domain
	// Segment is a virtual segment of the global address space.
	Segment = kernel.Segment
	// SegmentOptions customizes segment creation.
	SegmentOptions = kernel.SegmentOptions
	// Fault is a protection fault delivered to a user-level handler.
	Fault = kernel.Fault
	// FaultHandler resolves protection faults.
	FaultHandler = kernel.FaultHandler
	// Config configures a kernel and its machine.
	Config = kernel.Config
	// Model selects the protection model.
	Model = kernel.Model
	// Pager is a pluggable paging backend.
	Pager = kernel.Pager
)

// Protection models.
const (
	// ModelDomainPage is the PLB machine (Figure 1).
	ModelDomainPage = kernel.ModelDomainPage
	// ModelPageGroup is the PA-RISC page-group machine (Figure 2).
	ModelPageGroup = kernel.ModelPageGroup
	// ModelConventional runs the kernel on a conventional
	// multiple-address-space machine (Section 3.1's cautionary
	// configuration).
	ModelConventional = kernel.ModelConventional
)

// Detach policies for the domain-page model (ablation A5).
const (
	// DetachScan removes exactly the detached pairs with a PLB scan.
	DetachScan = kernel.DetachScan
	// DetachPurgeAll flash-clears the whole PLB instead.
	DetachPurgeAll = kernel.DetachPurgeAll
)

// Errors.
var (
	ErrProtection      = kernel.ErrProtection
	ErrNoAuthority     = kernel.ErrNoAuthority
	ErrNotAttached     = kernel.ErrNotAttached
	ErrSegmentBusy     = kernel.ErrSegmentBusy
	ErrUnrepresentable = kernel.ErrUnrepresentable
	ErrExecUnsupported = kernel.ErrExecUnsupported
)

// Machine configuration (for advanced construction).
type (
	// PLBConfig configures the PLB machine.
	PLBConfig = machine.PLBConfig
	// PGConfig configures the page-group machine.
	PGConfig = machine.PGConfig
	// Machine is the hardware interface shared by all organizations.
	Machine = machine.Machine
)

// New creates a kernel and its machine for the configured model.
func New(cfg Config) *Kernel { return kernel.New(cfg) }

// DefaultConfig returns the default configuration for a model.
func DefaultConfig(m Model) Config { return kernel.DefaultConfig(m) }
