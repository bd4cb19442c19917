package kernel

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/smp"
)

// Device translation agents (internal/iommu) attach to the kernel as
// first-class protection participants: each device holds an IOTLB
// organized to match the kernel's protection model, occupies a seat
// above the CPU range on the shootdown interconnect, and appears in
// the sharer directory like a CPU — a revocation that reaches the
// domain's CPUs also reaches every device caching its authority. DMA
// transfers run through DeviceReadPage/DeviceWritePage, which pass the
// device's translation + protection check before any byte moves; a
// device that stops acknowledging invalidation volleys is quarantined
// (its DMA channel fenced, in-flight transfers aborted with typed
// iommu errors) and rejoins by bulk IOTLB invalidation.

// DeviceConfig describes one device agent in Config.Devices.
type DeviceConfig struct {
	// Name labels the device in stats and errors; empty defaults to
	// "<kind><index>".
	Name string
	// Kind is the device class (iommu.NIC, DMAEngine, GCScanner).
	Kind iommu.Kind
	// Cluster seats the device on the mesh; must lie within the
	// normalized topology's clusters.
	Cluster int
}

// deviceEntries is every device's IOTLB capacity.
const deviceEntries = 64

// validateDevices normalizes and validates cfg.Devices against the
// seat budget and topology, returning the filled copy.
func validateDevices(cfg Config) ([]DeviceConfig, error) {
	if len(cfg.Devices) == 0 {
		return nil, nil
	}
	if cfg.CPUs+len(cfg.Devices) > MaxCPUs {
		return nil, &ConfigError{Field: "Devices", Value: len(cfg.Devices),
			Reason: fmt.Sprintf("with %d CPUs exceeds the %d interconnect seats", cfg.CPUs, MaxCPUs)}
	}
	topo := cfg.Topology.Normalize(cfg.CPUs)
	out := make([]DeviceConfig, len(cfg.Devices))
	for i, dc := range cfg.Devices {
		if dc.Cluster < 0 || dc.Cluster >= topo.Clusters() {
			return nil, &ConfigError{Field: fmt.Sprintf("Devices[%d].Cluster", i),
				Value:  dc.Cluster,
				Reason: fmt.Sprintf("outside the topology's %d clusters", topo.Clusters())}
		}
		if dc.Name == "" {
			dc.Name = fmt.Sprintf("%s%d", dc.Kind, i)
		}
		out[i] = dc
	}
	return out, nil
}

// deviceOrg picks the IOTLB organization matching the protection model:
// the page-group kernel drives AID-tagged device TLBs, every other
// model drives PLB-style (domain, page) IOTLBs.
func deviceOrg(m Model) iommu.Org {
	if m == ModelPageGroup {
		return iommu.OrgPageGroup
	}
	return iommu.OrgDomainPage
}

// attachDevices builds the device agents and seats them on the
// shootdown interconnect (called from NewChecked after the machines
// and shootdown subsystem exist).
func (k *Kernel) attachDevices(devs []DeviceConfig) {
	specs := make([]smp.DeviceSpec, len(devs))
	for i, dc := range devs {
		dev := iommu.New(iommu.Config{
			Name:     dc.Name,
			Kind:     dc.Kind,
			Org:      deviceOrg(k.cfg.Model),
			Entries:  deviceEntries,
			Seat:     len(k.seats),
			Cluster:  dc.Cluster,
			Geometry: k.geo,
			Costs:    &k.cost,
		}, k, &k.ctrs)
		k.devs = append(k.devs, dev)
		k.seats = append(k.seats, dev)
		specs[i] = smp.DeviceSpec{Cluster: dc.Cluster}
	}
	k.shoot.AttachDevices(specs)
}

// NumDevices returns the number of attached device agents.
func (k *Kernel) NumDevices() int { return len(k.devs) }

// Device returns device agent i.
func (k *Kernel) Device(i int) *iommu.Device { return k.devs[i] }

// DeviceSeat returns device i's target index on the interconnect
// (device seats start at NumCPUs).
func (k *Kernel) DeviceSeat(i int) int { return len(k.machs) + i }

// DeviceFenced reports whether device i's DMA channel is fenced
// (quarantined or degraded): transfers abort with iommu.ErrFenced
// until the device rejoins.
func (k *Kernel) DeviceFenced(i int) bool { return k.shoot.Fenced(k.DeviceSeat(i)) }

// ProgramDevice reprograms device i's DMA channel to act on behalf of
// domain d: subsequent transfers are checked against d's authority.
// The device conservatively joins d's residency set so revocations of
// d's rights reach it (withdrawn again when a removal shootdown proves
// its IOTLB holds nothing of d, or on rejoin), and becomes one of d's
// executing seats, so d's group loads and revocations reach its
// membership cache. Programming a device through a destroyed domain's
// handle is a programmer error: it panics with ErrDomainDestroyed
// (wrapped), as Attach does.
func (k *Kernel) ProgramDevice(i int, d *Domain) {
	if err := k.checkLive(d, "program device"); err != nil {
		panic(err)
	}
	seat := k.DeviceSeat(i)
	k.moveExecuting(seat, k.devs[i].OnBehalf(), d.ID)
	k.devs[i].SetOnBehalf(d.ID)
	d.cpus.Add(seat)
}

// RejoinDevice readmits an untrusted (quarantined, degraded or stale)
// device: its IOTLB and group set are bulk-invalidated, its directory
// residency withdrawn, queued shootdowns for it discarded as moot, and
// the fence lifted. Like rejoinCPU it charges one trap. Degraded
// devices stay fenced from delivery — for them this is the
// purge-before-reuse path, paid on every reprogram.
func (k *Kernel) RejoinDevice(i int) {
	seat := k.DeviceSeat(i)
	k.purgeSeat(seat)
	k.shoot.DropPending(seat)
	k.shoot.Rejoin(seat)
	k.hDevRejoins.Inc()
	k.cycles.Add(k.cost.Trap)
}

// deviceCheck runs device i's translation + protection check for one
// DMA reference, resolving IO page faults (unmapped pages are paged in
// or demand-zeroed by the kernel — devices have no user-level fault
// handlers, so protection denials are terminal typed errors). A device
// acting for no live domain, because its domain was destroyed or it was
// never programmed, has no authority to probe with.
func (k *Kernel) deviceCheck(i int, vpn addr.VPN, kind addr.AccessKind) error {
	dev := k.devs[i]
	if k.DeviceFenced(i) {
		dev.CountAbort()
		return &iommu.AccessError{
			Device: dev.Name(), Seat: dev.Seat(), Domain: dev.OnBehalf(),
			VPN: vpn, Kind: kind, Err: iommu.ErrFenced,
		}
	}
	if !k.DomainLive(dev.OnBehalf()) {
		return &iommu.AccessError{
			Device: dev.Name(), Seat: dev.Seat(), Domain: dev.OnBehalf(),
			VPN: vpn, Kind: kind, Err: iommu.ErrNoAuthority,
		}
	}
	for try := 0; try < maxFaultRetries; try++ {
		_, err := dev.Check(vpn, kind)
		if err == nil {
			return nil
		}
		if errors.Is(err, iommu.ErrUnmapped) {
			// IO page fault: the kernel resolves the translation
			// (page-in or demand-zero) and the device retries the walk.
			if ferr := k.handlePageFault(k.geo.Base(vpn)); ferr != nil {
				return ferr
			}
			continue
		}
		return err
	}
	return fmt.Errorf("%w: device %s DMA at %#x", ErrFaultLoop, dev.Name(), uint64(k.geo.Base(vpn)))
}

// DeviceReadPage DMA-reads the page holding va through device i's
// translation agent: the IOTLB check approves the transfer, then the
// device copies the page from its home memory bank (MemCopyPage plus
// MemHop per mesh hop, charged to the device's clock).
func (k *Kernel) DeviceReadPage(i int, va addr.VA) ([]byte, error) {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, addr.Load); err != nil {
		return nil, err
	}
	data, err := k.frameData(k.mappedPage(vpn), vpn)
	if err != nil {
		return nil, err
	}
	k.devs[i].ChargeDMAPage(k.topo, vpn)
	return append([]byte(nil), data...), nil
}

// DeviceWritePage DMA-writes buf over the page holding va through
// device i's translation agent. The protection check runs before the
// write lands: a revoked device either misses in its IOTLB and is
// denied, or — if an invalidation never reached it — writes through a
// stale entry, which the oracle's device audit reports.
func (k *Kernel) DeviceWritePage(i int, va addr.VA, buf []byte) error {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, addr.Store); err != nil {
		return err
	}
	data, err := k.frameData(k.markDirty(vpn), vpn)
	if err != nil {
		return err
	}
	copy(data, buf)
	k.devs[i].ChargeDMAPage(k.topo, vpn)
	return nil
}

// DeviceTouch runs a word-granularity DMA beat at va through device
// i's check (no data movement helper; scanners that only need the
// protection verdict use it).
func (k *Kernel) DeviceTouch(i int, va addr.VA, kind addr.AccessKind) error {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, kind); err != nil {
		return err
	}
	if kind == addr.Store {
		k.markDirty(vpn)
	}
	k.devs[i].ChargeDMAWord(k.topo, vpn)
	return nil
}
