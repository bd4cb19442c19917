package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/plb"
	"repro/internal/smp"
	"repro/internal/tlb"
	"repro/internal/workload/checkpoint"
	"repro/internal/workload/dsm"
)

// ErrInjected is the cause planted by every chaos injection hook, so
// campaign code (and errors.Is in experiments under test) can tell an
// injected failure from an organic one.
var ErrInjected = errors.New("chaos: injected fault")

// Scenario is one fault hypothesis the campaign subjects every
// experiment to. Kernel scenarios arm hooks on each kernel an
// experiment constructs (via kernel.SetNewHook); direct scenarios drive
// their own workload instead (network fault plans and crash windows,
// which have no per-kernel hook point).
type Scenario struct {
	// Name identifies the scenario in reports; Description says what it
	// breaks.
	Name        string
	Description string
	// Arm installs the scenario's fault hooks on a freshly constructed
	// kernel, drawing any probabilities from rng (the campaign's
	// per-(experiment, scenario) stream). Nil for direct scenarios.
	Arm func(k *kernel.Kernel, rng *rand.Rand)
	// Fired reads back how many of this scenario's faults actually
	// fired on the kernel, from the injection/corruption counters.
	Fired func(k *kernel.Kernel) uint64
	// Corrupts marks scenarios that plant wrong hardware state. For
	// these, pre-recovery oracle violations are legitimate whenever
	// Fired > 0 — that is the oracle doing its job — but a violation
	// with zero fired faults is an oracle false positive and fails the
	// campaign. Non-corrupting scenarios must never cause violations.
	Corrupts bool
	// Protocol marks scenarios that arm the acknowledged shootdown
	// protocol. For these the campaign additionally runs the oracle's
	// convergence check on every kernel after its run, with the fault
	// hooks still armed: protection maintenance must reach zero
	// violations within its cycle bound despite ongoing drops, ack
	// losses and slow responders.
	Protocol bool
	// Direct, when non-nil, replaces the per-experiment run: the
	// scenario executes once per campaign and returns how many faults
	// it injected and how much recovery work the system performed.
	Direct func(seed int64) (fired, recovered uint64, err error)
}

// kernelFired sums named kernel counters.
func kernelFired(names ...string) func(*kernel.Kernel) uint64 {
	return func(k *kernel.Kernel) uint64 {
		var n uint64
		for _, name := range names {
			n += k.Counters().Get(name)
		}
		return n
	}
}

// machineFired sums one machine counter over every CPU's private
// structures: on a multiprocessor the corruptor may fire on any CPU's
// instance, not just the current one's.
func machineFired(name string) func(*kernel.Kernel) uint64 {
	return func(k *kernel.Kernel) uint64 {
		var n uint64
		for i := 0; i < k.NumCPUs(); i++ {
			n += k.MachineAt(i).Counters().Get(name)
		}
		return n
	}
}

var allModels = []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional}

// Default returns the campaign's scenario catalog: every fault-injector
// hook, stale/flipped-entry corruption of each hardware protection
// structure, paging-path failures, and the network fault plans and
// crash windows of the DSM workload.
func Default() []Scenario {
	return []Scenario{
		{
			Name:        "frame-alloc-flaky",
			Description: "physical frame allocation fails intermittently",
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.SetFaultInjector(&kernel.FaultInjector{
					FrameAlloc: func(addr.VPN) error {
						if rng.Intn(64) == 0 {
							return fmt.Errorf("%w: frame pool", ErrInjected)
						}
						return nil
					},
				})
			},
			Fired: kernelFired("kernel.injected_frame_failures"),
		},
		{
			Name:        "handler-crash",
			Description: "user-level fault handlers crash intermittently",
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.SetFaultInjector(&kernel.FaultInjector{
					HandlerError: func(kernel.Fault) error {
						if rng.Intn(8) == 0 {
							return fmt.Errorf("%w: handler crashed", ErrInjected)
						}
						return nil
					},
				})
			},
			Fired: kernelFired("kernel.injected_handler_errors"),
		},
		{
			Name:        "spurious-traps",
			Description: "protection hardware raises traps on valid accesses",
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.SetFaultInjector(&kernel.FaultInjector{
					SpuriousTrap: func(addr.DomainID, addr.VA, addr.AccessKind) bool {
						return rng.Intn(32) == 0
					},
				})
			},
			Fired: kernelFired("kernel.injected_spurious_traps"),
		},
		{
			Name:        "paging-io-fail",
			Description: "backing-store reads and writes fail intermittently",
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.SetFaultInjector(&kernel.FaultInjector{
					PageOut: func(addr.VPN) error {
						if rng.Intn(4) == 0 {
							return fmt.Errorf("%w: backing-store write", ErrInjected)
						}
						return nil
					},
					PageIn: func(addr.VPN) error {
						if rng.Intn(4) == 0 {
							return fmt.Errorf("%w: backing-store read", ErrInjected)
						}
						return nil
					},
				})
			},
			Fired: kernelFired("kernel.injected_pageout_failures", "kernel.injected_pagein_failures"),
		},
		{
			Name:        "plb-corrupt",
			Description: "PLB installs latch flipped (upgraded) rights",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				for i := 0; i < k.NumCPUs(); i++ {
					m, ok := k.MachineAt(i).(*machine.PLBMachine)
					if !ok {
						return
					}
					m.PLB().SetCorruptor(func(_ plb.Key, r addr.Rights) (addr.Rights, bool) {
						if bad := r | addr.RW; bad != r && rng.Intn(8) == 0 {
							return bad, true
						}
						return r, false
					})
				}
			},
			Fired: machineFired("plb.corrupted"),
		},
		{
			Name:        "trans-tlb-stale",
			Description: "translation TLB installs a stale (off-by-one) frame",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				for i := 0; i < k.NumCPUs(); i++ {
					m, ok := k.MachineAt(i).(*machine.PLBMachine)
					if !ok {
						return
					}
					m.TLB().SetCorruptor(func(_ addr.VPN, e tlb.TransEntry) (tlb.TransEntry, bool) {
						if rng.Intn(8) == 0 {
							e.PFN++
							return e, true
						}
						return e, false
					})
				}
			},
			Fired: machineFired("tlb.corrupted"),
		},
		{
			Name:        "pgtlb-corrupt",
			Description: "page-group TLB installs upgraded rights bits",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				for i := 0; i < k.NumCPUs(); i++ {
					m, ok := k.MachineAt(i).(*machine.PGMachine)
					if !ok {
						return
					}
					m.TLB().SetCorruptor(func(_ addr.VPN, e tlb.PGEntry) (tlb.PGEntry, bool) {
						if bad := e.Rights | addr.RW; bad != e.Rights && rng.Intn(8) == 0 {
							e.Rights = bad
							return e, true
						}
						return e, false
					})
				}
			},
			Fired: machineFired("pgtlb.corrupted"),
		},
		{
			Name:        "pgc-corrupt",
			Description: "group-check registers load a wrong group identifier",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				for i := 0; i < k.NumCPUs(); i++ {
					m, ok := k.MachineAt(i).(*machine.PGMachine)
					if !ok {
						return
					}
					m.Checker().SetCorruptor(func(g addr.GroupID, wd bool) (addr.GroupID, bool, bool) {
						if g != addr.GlobalGroup && rng.Intn(4) == 0 {
							return g + 1000, wd, true
						}
						return g, wd, false
					})
				}
			},
			Fired: machineFired("pgc.corrupted"),
		},
		{
			Name:        "conv-tlb-corrupt",
			Description: "ASID-tagged TLB installs upgraded rights bits",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				for i := 0; i < k.NumCPUs(); i++ {
					m, ok := k.MachineAt(i).(*machine.ConventionalMachine)
					if !ok {
						return
					}
					m.TLB().SetCorruptor(func(_ tlb.ASIDKey, e tlb.ASIDEntry) (tlb.ASIDEntry, bool) {
						if bad := e.Rights | addr.RW; bad != e.Rights && rng.Intn(8) == 0 {
							e.Rights = bad
							return e, true
						}
						return e, false
					})
				}
			},
			Fired: machineFired("tlb.corrupted"),
		},
		{
			Name:        "ipi-drop",
			Description: "shootdown IPIs dropped intermittently, leaving stale remote entries",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				// Only multiprocessor kernels (E14's) send IPIs; on a
				// uniprocessor the hook is armed but can never fire.
				k.SetIPIFault(func(int, smp.Request) smp.Fault {
					if rng.Intn(4) == 0 {
						return smp.FaultDrop
					}
					return smp.FaultNone
				})
			},
			Fired: kernelFired("smp.ipi_dropped"),
		},
		{
			Name:        "ipi-loss-storm",
			Description: "acknowledged protocol under a 25% IPI loss storm: retries must converge",
			Corrupts:    true,
			Protocol:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
				k.SetIPIFault(func(int, smp.Request) smp.Fault {
					if rng.Intn(4) == 0 {
						return smp.FaultDrop
					}
					return smp.FaultNone
				})
			},
			Fired: kernelFired("smp.ipi_dropped"),
		},
		{
			Name:        "ack-loss",
			Description: "requests applied but acknowledgements lost: retransmits must be duplicate-suppressed",
			Corrupts:    true,
			Protocol:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
				k.SetIPIFault(func(int, smp.Request) smp.Fault {
					if rng.Intn(4) == 0 {
						return smp.FaultAckLoss
					}
					return smp.FaultNone
				})
			},
			Fired: kernelFired("smp.ack_lost"),
		},
		{
			Name:        "slow-responder",
			Description: "target CPUs apply shootdowns late: acks miss the timeout window",
			Corrupts:    true,
			Protocol:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
				k.SetIPIFault(func(int, smp.Request) smp.Fault {
					if rng.Intn(3) == 0 {
						return smp.FaultDelay
					}
					return smp.FaultNone
				})
			},
			Fired: kernelFired("smp.ipi_delayed"),
		},
		{
			Name:        "cpu-death-rejoin",
			Description: "a CPU dies mid-run: quarantine after the retry budget, epoch recovery on rejoin",
			Corrupts:    true,
			Protocol:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
				if k.NumCPUs() < 2 {
					return
				}
				victim := 1 + rng.Intn(k.NumCPUs()-1)
				alive := 8 + rng.Intn(8) // deliveries before the CPU dies
				k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
					if target != victim {
						return smp.FaultNone
					}
					if alive > 0 {
						alive--
						return smp.FaultNone
					}
					return smp.FaultDrop
				})
			},
			Fired: kernelFired("smp.quarantines"),
		},
		{
			Name:        "dev-ack-drop",
			Description: "device-seat invalidation volleys dropped under the acknowledged protocol: scaled timeouts, retries and device quarantine must converge",
			Corrupts:    true,
			Protocol:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
				ncpu := k.NumCPUs()
				k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
					if target >= ncpu && rng.Intn(3) == 0 {
						return smp.FaultDrop
					}
					return smp.FaultNone
				})
			},
			// Fires only on kernels with device seats (E17's); the hook is
			// armed everywhere but CPU targets are never faulted.
			Fired: kernelFired("smp.dev_dropped"),
		},
		{
			Name:        "dma-vs-revoke",
			Description: "fire-and-forget invalidations to device seats lost while DMA races the revocation: stale IOTLB authority must surface as oracle violations",
			Corrupts:    true,
			Arm: func(k *kernel.Kernel, rng *rand.Rand) {
				ncpu := k.NumCPUs()
				k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
					if target >= ncpu && rng.Intn(2) == 0 {
						return smp.FaultDrop
					}
					return smp.FaultNone
				})
			},
			Fired: kernelFired("smp.dev_dropped"),
		},
		{
			Name:        "dev-death-mid-checkpoint",
			Description: "the checkpoint DMA engine dies mid-checkpoint: typed abort, quarantine, rejoin-by-bulk-invalidation, then the retried saves complete a consistent image",
			Direct:      directDeviceDeathCheckpoint,
		},
		{
			Name:        "net-lossy",
			Description: "DSM over a 20% lossy, duplicating, reordering network",
			Direct:      directNetLossy,
		},
		{
			Name:        "net-crash-recovery",
			Description: "DSM node crash mid-run with checkpoint recovery",
			Direct:      directNetCrash,
		},
		{
			Name:        "net-crash-window",
			Description: "reliable delivery across a scheduled node outage",
			Direct:      directCrashWindow,
		},
	}
}

// directNetLossy runs the DSM workload on all three models over a lossy
// network and checks the injected losses correlate with reliability
// work: drops must be answered by retransmissions.
func directNetLossy(seed int64) (fired, recovered uint64, err error) {
	for _, m := range allModels {
		cfg := dsm.DefaultConfig(m)
		cfg.Seed = seed
		cfg.Net.Faults = netsim.FaultPlan{
			Seed:           seed,
			DropPercent:    20,
			DupPercent:     5,
			ReorderPercent: 5,
		}
		rep, rerr := dsm.Run(cfg)
		if rerr != nil {
			return fired, recovered, fmt.Errorf("chaos: net-lossy on %v: %w", m, rerr)
		}
		fired += rep.Drops + rep.Dups + rep.Reorders
		recovered += rep.Retransmits + rep.DupSuppressed
		if rep.Drops > 0 && rep.Retransmits == 0 {
			return fired, recovered, fmt.Errorf("chaos: net-lossy on %v: %d drops but no retransmissions", m, rep.Drops)
		}
	}
	return fired, recovered, nil
}

// directNetCrash crashes a DSM node mid-run on a lossy network and
// checks recovery converged: the run's own coherence verification
// passes (dsm.Run errors otherwise) and the crash was recorded.
func directNetCrash(seed int64) (fired, recovered uint64, err error) {
	for _, m := range allModels {
		cfg := dsm.DefaultConfig(m)
		cfg.Seed = seed
		cfg.Pages = 8
		cfg.WritePercent = 60
		cfg.Net.Faults = netsim.FaultPlan{Seed: seed, DropPercent: 5}
		cfg.CrashNode = 2
		cfg.CrashAtOp = cfg.OpsPerNode / 2
		rep, rerr := dsm.Run(cfg)
		if rerr != nil {
			return fired, recovered, fmt.Errorf("chaos: net-crash-recovery on %v: %w", m, rerr)
		}
		if rep.Crashes != 1 {
			return fired, recovered, fmt.Errorf("chaos: net-crash-recovery on %v: %d crashes recorded, want 1", m, rep.Crashes)
		}
		fired += rep.Crashes + rep.Drops + rep.DownDrops
		recovered += rep.RecoveredPages + rep.CheckpointSaves + rep.Retransmits
	}
	return fired, recovered, nil
}

// directCrashWindow exercises the reliable-delivery layer across a
// scheduled netsim crash window: sends during the outage must surface
// ErrDeliveryFailed (never silent loss), sends outside it must succeed,
// and delivery stays exactly-once.
func directCrashWindow(seed int64) (fired, recovered uint64, err error) {
	net := netsim.New(2, netsim.Config{
		MsgLatency: 100,
		ByteCycles: 1,
		Faults: netsim.FaultPlan{
			Seed:    seed,
			Crashes: []netsim.CrashWindow{{Node: 1, From: 10, To: 80}},
		},
	})
	rel := netsim.NewReliable(net, netsim.ReliableConfig{MaxRetries: 3})
	delivered, failed, got := 0, 0, 0
	for i := 0; i < 40; i++ {
		_, serr := rel.Send(0, 1, 64, func() { got++ })
		switch {
		case serr == nil:
			delivered++
		case errors.Is(serr, netsim.ErrDeliveryFailed):
			failed++
		default:
			return fired, recovered, fmt.Errorf("chaos: net-crash-window: unexpected error: %w", serr)
		}
	}
	fired = net.Counters().Get("net.down_drops")
	recovered = net.Counters().Get("reliable.retransmits")
	if failed == 0 {
		return fired, recovered, errors.New("chaos: net-crash-window: no send failed during the outage")
	}
	if delivered == 0 {
		return fired, recovered, errors.New("chaos: net-crash-window: no send succeeded outside the outage")
	}
	if got != delivered {
		return fired, recovered, fmt.Errorf("chaos: net-crash-window: %d confirmed deliveries but %d messages arrived (exactly-once broken)", delivered, got)
	}
	if fired == 0 {
		return fired, recovered, errors.New("chaos: net-crash-window: outage window never dropped a message")
	}
	return fired, recovered, nil
}

// directDeviceDeathCheckpoint routes the checkpoint workload's page
// saves through a DMA engine device agent and kills the device's IPI
// path mid-checkpoint: revocation volleys aimed at its seat are lost
// until the acknowledged protocol quarantines it, at which point its
// DMA channel is fenced and the in-flight save aborts with a typed
// iommu.ErrFenced. The scenario's save callback then performs the
// recovery the kernel prescribes — RejoinDevice's bulk IOTLB
// invalidation — and retries; the checkpoint must still produce a
// byte-consistent image, and the oracle must find no stale device
// authority afterwards.
func directDeviceDeathCheckpoint(seed int64) (fired, recovered uint64, err error) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	cfg.Devices = []kernel.DeviceConfig{{Name: "ckpt-dma", Kind: iommu.DMAEngine}}
	k, kerr := kernel.NewChecked(cfg)
	if kerr != nil {
		return 0, 0, fmt.Errorf("chaos: dev-death-mid-checkpoint: %w", kerr)
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	kc := k.Counters()

	// The device is dead to IPIs until it has been quarantined twice;
	// then the fault heals and the remaining volleys deliver.
	ncpu := k.NumCPUs()
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target >= ncpu && kc.Get("smp.dev_quarantines") < 2 {
			return smp.FaultDrop
		}
		return smp.FaultNone
	})

	ccfg := checkpoint.DefaultConfig()
	ccfg.Seed = seed
	rejoins := uint64(0)
	ccfg.DMARead = func(server *kernel.Domain, va addr.VA) ([]byte, error) {
		if k.Device(0).OnBehalf() != server.ID {
			k.ProgramDevice(0, server)
		}
		data, derr := k.DeviceReadPage(0, va)
		if errors.Is(derr, iommu.ErrFenced) {
			// The quarantined engine's transfer aborted: rejoin by bulk
			// IOTLB invalidation and retry the save.
			k.RejoinDevice(0)
			rejoins++
			data, derr = k.DeviceReadPage(0, va)
		}
		if derr != nil {
			return nil, derr
		}
		// Pin-and-release: the pager downgrades the server's mapping of
		// the just-saved page and restores it, the per-save maintenance
		// that keeps invalidation volleys flowing at the engine's seat —
		// into the dead link, until quarantine trips.
		if perr := k.SetPageRights(server, va, addr.None); perr != nil {
			return nil, perr
		}
		if perr := k.SetPageRights(server, va, addr.Read); perr != nil {
			return nil, perr
		}
		return data, nil
	}
	rep, rerr := checkpoint.Run(k, ccfg)
	if rerr != nil {
		return 0, 0, fmt.Errorf("chaos: dev-death-mid-checkpoint: checkpoint did not survive device death: %w", rerr)
	}
	if rep.Checkpoints != ccfg.Checkpoints {
		return 0, 0, fmt.Errorf("chaos: dev-death-mid-checkpoint: %d/%d checkpoints completed", rep.Checkpoints, ccfg.Checkpoints)
	}
	fired = kc.Get("smp.dev_dropped") + kc.Get("smp.dev_quarantines")
	recovered = kc.Get("kernel.dev_rejoins") + kc.Get("iommu.aborted")
	if kc.Get("smp.dev_quarantines") == 0 {
		return fired, recovered, errors.New("chaos: dev-death-mid-checkpoint: dead device never quarantined")
	}
	if kc.Get("iommu.aborted") == 0 {
		return fired, recovered, errors.New("chaos: dev-death-mid-checkpoint: fenced transfers never aborted")
	}
	if rejoins == 0 {
		return fired, recovered, errors.New("chaos: dev-death-mid-checkpoint: abort path never forced a rejoin")
	}
	if conv, cerr := oracle.CheckConvergence(k); cerr != nil {
		return fired, recovered, fmt.Errorf("chaos: dev-death-mid-checkpoint: convergence (spent %d of bound %d): %w",
			conv.Cycles, conv.Bound, cerr)
	}
	return fired, recovered, nil
}
