// Command sasosim runs a single workload or a binary trace on a chosen
// machine model and prints its report and hardware counters.
//
// Usage:
//
//	sasosim -workload gc -model domain-page
//	sasosim -workload txn -model page-group
//	sasosim -workload shootdown -model conventional -cpus 4
//	sasosim -workload shootdown -cpus 4 -ipi-drop 10
//	sasosim -workload shootdown -cpus 8 -kill-cpu 3@50000
//	sasosim -workload devio -cpus 4 -devices 3
//	sasosim -workload devio -cpus 4 -devices 3 -dev-drop 25
//	sasosim -workload devio -cpus 4 -devices 3 -kill-dev 0@100000
//	sasosim -workload dsm -drop 10 -crash-node 2 -crash-at 200
//	sasosim -workload sessions -sessions 1000000 -fork
//	sasosim -workload sessions -model page-group -cpus 8 -sessions 50000
//	sasosim -trace refs.trc -machine flush
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/smp"
	"repro/internal/trace"
	"repro/internal/workload/attach"
	"repro/internal/workload/checkpoint"
	"repro/internal/workload/compress"
	"repro/internal/workload/devio"
	"repro/internal/workload/dsm"
	"repro/internal/workload/gc"
	"repro/internal/workload/rpc"
	"repro/internal/workload/sessions"
	"repro/internal/workload/txn"
)

func main() {
	workload := flag.String("workload", "", "workload: attach|gc|dsm|txn|checkpoint|compress|rpc|shootdown|devio|sessions")
	model := flag.String("model", "domain-page", "protection model: domain-page|page-group|conventional|flush")
	cpus := flag.Int("cpus", 1, "number of CPUs; > 1 runs domains spread across CPUs and charges shootdown IPIs (smp.* counters)")
	var mesh meshOpts
	flag.IntVar(&mesh.w, "mesh-w", 0, "cluster mesh width; with -mesh-h and -cluster-cpus arranges the CPUs as a 2D mesh of clusters and charges per-hop IPI/memory surcharges (0 = flat, everything one cluster)")
	flag.IntVar(&mesh.h, "mesh-h", 0, "cluster mesh height (see -mesh-w)")
	flag.IntVar(&mesh.clusterCPUs, "cluster-cpus", 0, "CPUs per mesh cluster (0 = divide evenly across clusters)")
	incremental := flag.Bool("incremental", false, "checkpoint workload: incremental instead of full")
	traceFile := flag.String("trace", "", "binary trace file to replay instead of a workload")
	machName := flag.String("machine", "plb", "machine for trace replay: plb|page-group|conventional|flush")
	var ipi ipiOpts
	flag.IntVar(&ipi.drop, "ipi-drop", 0, "percent of shootdown requests lost in delivery (0-100); enables the acknowledged retry/quarantine protocol, needs -cpus >= 2")
	flag.IntVar(&ipi.delay, "ipi-delay", 0, "percent of shootdown requests applied late (ack misses its timeout); enables the acknowledged protocol, needs -cpus >= 2")
	flag.StringVar(&ipi.kill, "kill-cpu", "", "N@C: CPU N stops responding to shootdowns once total simulated cycles reach C; enables the acknowledged protocol, needs -cpus >= 2")
	var dev devOpts
	flag.IntVar(&dev.devices, "devices", 0, "attach this many device translation agents (NIC, DMA engine, GC scanner, cycling); their seats receive device-seat shootdowns")
	flag.IntVar(&dev.drop, "dev-drop", 0, "percent of device-bound shootdowns lost in delivery (0-100); enables the acknowledged protocol, needs -devices >= 1")
	flag.IntVar(&dev.delay, "dev-delay", 0, "percent of device-bound shootdowns applied late (ack misses its timeout); enables the acknowledged protocol, needs -devices >= 1")
	flag.StringVar(&dev.kill, "kill-dev", "", "N@C: device N stops acking shootdowns once total simulated cycles reach C (quarantine + fenced DMA); enables the acknowledged protocol")
	var d dsmOpts
	flag.StringVar(&d.manager, "manager", "central", "dsm ownership protocol: central|distributed")
	flag.IntVar(&d.drop, "drop", 0, "dsm: percent of messages dropped in transit (0-100)")
	flag.IntVar(&d.dup, "dup", 0, "dsm: percent of messages duplicated by the wire (0-100)")
	flag.IntVar(&d.reorder, "reorder", 0, "dsm: percent of messages reordered (0-100)")
	flag.IntVar(&d.crashNode, "crash-node", 0, "dsm: crash this node mid-run (0 disables; node 0 cannot crash)")
	flag.IntVar(&d.crashAt, "crash-at", 0, "dsm: round after which -crash-node fails")
	flag.Int64Var(&d.seed, "seed", 1, "seed for workload randomness and fault plans (dsm and -ipi-*)")
	var sess sessOpts
	flag.IntVar(&sess.sessions, "sessions", 0, "sessions workload: total session create/destroy cycles (0 = workload default)")
	flag.BoolVar(&sess.fork, "fork", true, "sessions workload: spawn sessions by forking a template domain (copy-on-write overrides); -fork=false creates empty domains and attaches each segment")
	flag.Parse()

	if *traceFile != "" {
		if err := replay(*traceFile, *machName); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runWorkload(*workload, *model, *cpus, mesh, *incremental, ipi, dev, d, sess); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dsmOpts bundles the DSM-specific command-line options.
type dsmOpts struct {
	manager            string
	drop, dup, reorder int
	crashNode, crashAt int
	seed               int64
}

// sessOpts bundles the session-churn workload options.
type sessOpts struct {
	sessions int
	fork     bool
}

// ipiOpts bundles the shootdown fault-injection options. Any of them
// switches cross-CPU invalidation to the acknowledged retry/quarantine
// protocol before the workload runs.
type ipiOpts struct {
	drop, delay int
	kill        string // "N@C"
}

func (o ipiOpts) active() bool { return o.drop > 0 || o.delay > 0 || o.kill != "" }

// devOpts bundles the device-agent options: how many translation
// agents to attach and the fault plan for their shootdown seats. Any
// fault option switches cross-seat invalidation to the acknowledged
// retry/quarantine protocol before the workload runs.
type devOpts struct {
	devices     int
	drop, delay int
	kill        string // "N@C"
}

func (o devOpts) active() bool { return o.drop > 0 || o.delay > 0 || o.kill != "" }

// deviceConfigs builds n device agents, cycling the three kinds.
func deviceConfigs(n int) []kernel.DeviceConfig {
	kinds := []iommu.Kind{iommu.NIC, iommu.DMAEngine, iommu.GCScanner}
	devs := make([]kernel.DeviceConfig, n)
	for i := range devs {
		devs[i] = kernel.DeviceConfig{
			Name: fmt.Sprintf("dev%d", i),
			Kind: kinds[i%len(kinds)],
		}
	}
	return devs
}

// meshOpts bundles the cluster-topology options. All zero means a flat
// machine (one cluster, no hop surcharges) — the pre-mesh behavior.
type meshOpts struct {
	w, h, clusterCPUs int
}

func (o meshOpts) topology() smp.Topology {
	return smp.Topology{MeshWidth: o.w, MeshHeight: o.h, ClusterCPUs: o.clusterCPUs}
}

// armFaults enables the acknowledged protocol and installs one hook
// covering both fault plans: the CPU options fault targets below the
// CPU count, the device options fault the device seats above it.
func armFaults(k *kernel.Kernel, o ipiOpts, dv devOpts, seed int64) error {
	if !o.active() && !dv.active() {
		return nil
	}
	if o.active() && k.NumCPUs() < 2 {
		return fmt.Errorf("sasosim: -ipi-drop/-ipi-delay/-kill-cpu need -cpus >= 2 (a uniprocessor sends no shootdowns)")
	}
	if dv.active() && k.NumDevices() < 1 {
		return fmt.Errorf("sasosim: -dev-drop/-dev-delay/-kill-dev need -devices >= 1 (no device seats to fault)")
	}
	for _, p := range []struct {
		name string
		v    int
	}{{"-ipi-drop", o.drop}, {"-ipi-delay", o.delay}, {"-dev-drop", dv.drop}, {"-dev-delay", dv.delay}} {
		if p.v < 0 || p.v > 100 {
			return fmt.Errorf("sasosim: %s %d out of [0,100]", p.name, p.v)
		}
	}
	killCPU, killAt := -1, uint64(0)
	if o.kill != "" {
		if _, err := fmt.Sscanf(o.kill, "%d@%d", &killCPU, &killAt); err != nil {
			return fmt.Errorf("sasosim: -kill-cpu wants N@C (CPU N dies at cycle C), got %q", o.kill)
		}
		if killCPU < 0 || killCPU >= k.NumCPUs() {
			return fmt.Errorf("sasosim: -kill-cpu %d out of [0,%d]", killCPU, k.NumCPUs()-1)
		}
	}
	killSeat, killDevAt := -1, uint64(0)
	if dv.kill != "" {
		killDev := -1
		if _, err := fmt.Sscanf(dv.kill, "%d@%d", &killDev, &killDevAt); err != nil {
			return fmt.Errorf("sasosim: -kill-dev wants N@C (device N dies at cycle C), got %q", dv.kill)
		}
		if killDev < 0 || killDev >= k.NumDevices() {
			return fmt.Errorf("sasosim: -kill-dev %d out of [0,%d]", killDev, k.NumDevices()-1)
		}
		killSeat = k.DeviceSeat(killDev)
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	rng := rand.New(rand.NewSource(seed))
	ncpu := k.NumCPUs()
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target == killCPU && k.TotalCycles() >= killAt {
			return smp.FaultDrop
		}
		if target == killSeat && k.TotalCycles() >= killDevAt {
			return smp.FaultDrop
		}
		if target >= ncpu {
			if dv.drop > 0 && rng.Intn(100) < dv.drop {
				return smp.FaultDrop
			}
			if dv.delay > 0 && rng.Intn(100) < dv.delay {
				return smp.FaultDelay
			}
			return smp.FaultNone
		}
		if o.drop > 0 && rng.Intn(100) < o.drop {
			return smp.FaultDrop
		}
		if o.delay > 0 && rng.Intn(100) < o.delay {
			return smp.FaultDelay
		}
		return smp.FaultNone
	})
	return nil
}

func parseModel(s string) (kernel.Model, error) {
	switch s {
	case "domain-page", "plb":
		return kernel.ModelDomainPage, nil
	case "page-group", "pa-risc":
		return kernel.ModelPageGroup, nil
	case "conventional":
		return kernel.ModelConventional, nil
	case "flush":
		return kernel.ModelFlush, nil
	default:
		return 0, fmt.Errorf("sasosim: unknown model %q", s)
	}
}

func runWorkload(name, modelName string, cpus int, mesh meshOpts, incremental bool, ipi ipiOpts, dev devOpts, d dsmOpts, sess sessOpts) error {
	m, err := parseModel(modelName)
	if err != nil {
		return err
	}
	if cpus < 1 {
		return fmt.Errorf("sasosim: -cpus %d, want >= 1", cpus)
	}
	if dev.devices < 0 {
		return fmt.Errorf("sasosim: -devices %d, want >= 0", dev.devices)
	}
	if name == "devio" && dev.devices == 0 {
		dev.devices = 3 // NIC + DMA engine + GC scanner
	}
	cfg := kernel.DefaultConfig(m)
	cfg.CPUs = cpus
	cfg.Topology = mesh.topology()
	cfg.Devices = deviceConfigs(dev.devices)
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		return err
	}
	if err := armFaults(k, ipi, dev, d.seed); err != nil {
		return err
	}
	var rep any
	var dsmRep *dsm.Report
	switch name {
	case "attach":
		rep, err = attach.Run(k, attach.DefaultConfig())
	case "gc":
		rep, err = gc.Run(k, gc.DefaultConfig())
	case "dsm":
		for _, p := range []struct {
			name string
			v    int
		}{{"-drop", d.drop}, {"-dup", d.dup}, {"-reorder", d.reorder}} {
			if p.v < 0 || p.v > 100 {
				return fmt.Errorf("sasosim: %s %d out of [0,100]", p.name, p.v)
			}
		}
		cfg := dsm.DefaultConfig(m)
		cfg.Seed = d.seed
		if d.manager == "distributed" {
			cfg.Manager = dsm.DistributedManager
		}
		if d.drop > 0 || d.dup > 0 || d.reorder > 0 {
			cfg.Net.Faults = netsim.FaultPlan{
				Seed:           d.seed,
				DropPercent:    d.drop,
				DupPercent:     d.dup,
				ReorderPercent: d.reorder,
			}
		}
		cfg.CrashNode = d.crashNode
		cfg.CrashAtOp = d.crashAt
		var r dsm.Report
		r, err = dsm.Run(cfg)
		rep, dsmRep = r, &r
	case "txn":
		rep, err = txn.Run(k, txn.DefaultConfig(m))
	case "checkpoint":
		if incremental {
			cfg := checkpoint.DefaultConfig()
			cfg.Checkpoints = 3
			rep, err = checkpoint.RunIncremental(k, cfg)
		} else {
			rep, err = checkpoint.Run(k, checkpoint.DefaultConfig())
		}
	case "shootdown":
		// The E14 sharing workload: domains pinned round-robin across
		// -cpus CPUs narrow rights, page out shared pages, and churn
		// attachments, so every change shoots down remote entries. Runs
		// on the outer kernel so -ipi-* fault injection applies.
		var ops uint64
		ops, err = core.RunShootdownWorkload(k)
		rep = fmt.Sprintf("shootdown-producing protection ops: %d", ops)
	case "devio":
		// Device traffic against a shared ring: NIC packet deliveries,
		// DMA page reads and GC scan beats through the device IOTLBs,
		// racing CPU stores and periodic write-authority revocations
		// (device-seat shootdowns). -dev-* fault injection applies.
		wcfg := devio.DefaultConfig()
		wcfg.Seed = d.seed
		rep, err = devio.Run(k, wcfg)
	case "sessions":
		// Multi-tenant session churn: short-lived domains arrive (forked
		// from a template or created empty), touch shared segments, and
		// depart through DestroyDomain — ID recycling, copy-on-write
		// overrides and destroy-time shootdowns under load. With -cpus >
		// 1 sessions are pinned round-robin so destroys must shoot
		// remote seats; -ipi-* fault injection applies.
		wcfg := sessions.DefaultConfig()
		wcfg.Seed = d.seed
		wcfg.Fork = sess.fork
		if sess.sessions > 0 {
			wcfg.Sessions = sess.sessions
		}
		wcfg.PinCPUs = cpus > 1
		rep, err = sessions.Run(k, wcfg)
	case "compress":
		rep, err = compress.Run(k, compress.DefaultConfig())
	case "rpc":
		rep, err = rpc.Run(k, rpc.DefaultConfig())
	default:
		return fmt.Errorf("sasosim: unknown workload %q", name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s on %s (%d CPUs)\n\nreport: %+v\n\nmachine counters:\n%s\nkernel counters:\n%s",
		name, m, k.NumCPUs(), rep, k.Machine().Counters(), k.Counters())
	fmt.Printf("machine cycles: %d (all CPUs: %d)\nkernel cycles:  %d\n", k.Machine().Cycles(), k.TotalCycles(), k.Cycles())
	printDevices(k)
	if k.ShootdownProtocolEnabled() {
		c := k.Counters()
		fmt.Printf("\nshootdown protocol: acks=%d retransmits=%d timeouts=%d quarantines=%d dup_suppressed=%d rejoins=%d\n",
			c.Get("smp.acks"), c.Get("smp.retransmits"), c.Get("smp.timeouts"),
			c.Get("smp.quarantines"), c.Get("smp.dup_suppressed"), c.Get("kernel.cpu_rejoins"))
		conv, cerr := oracle.CheckConvergence(k)
		if cerr != nil {
			return fmt.Errorf("sasosim: protection state did not converge: %w", cerr)
		}
		fmt.Printf("convergence: %d cycles (bound %d), all CPUs trusted\n", conv.Cycles, conv.Bound)
	}
	if dsmRep != nil {
		fmt.Printf("\nreliability: retransmits=%d timeouts=%d acks=%d dup_suppressed=%d drops=%d dups=%d reorders=%d down_drops=%d\n",
			dsmRep.Retransmits, dsmRep.Timeouts, dsmRep.Acks, dsmRep.DupSuppressed,
			dsmRep.Drops, dsmRep.Dups, dsmRep.Reorders, dsmRep.DownDrops)
		fmt.Printf("reliability cycles: retransmit=%d timeout=%d ack=%d\n",
			dsmRep.RetransCycles, dsmRep.TimeoutCycles, dsmRep.AckCycles)
		fmt.Printf("recovery: crashes=%d checkpoint_saves=%d recovered_pages=%d store_fetches=%d recovery_cycles=%d\n",
			dsmRep.Crashes, dsmRep.CheckpointSaves, dsmRep.RecoveredPages, dsmRep.StoreFetches, dsmRep.RecoveryCycles)
	}
	return nil
}

// printDevices reports each device agent's IOTLB hit rate and
// protection outcomes, plus the device half of the shootdown
// machinery (nothing prints without -devices).
func printDevices(k *kernel.Kernel) {
	if k.NumDevices() == 0 {
		return
	}
	fmt.Printf("\ndevice agents:\n")
	for i := 0; i < k.NumDevices(); i++ {
		d := k.Device(i)
		hits, misses, denied, aborted := d.Stats()
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Printf("  %s (%s, seat %d): iotlb hits=%d misses=%d hit-rate=%.1f%% denied=%d aborted=%d health=%v cycles=%d\n",
			d.Name(), d.Kind(), k.DeviceSeat(i), hits, misses, rate, denied, aborted, k.SeatHealth(k.DeviceSeat(i)), d.Cycles())
	}
	c := k.Counters()
	fmt.Printf("device shootdowns: ipis=%d applied=%d retransmits=%d timeouts=%d quarantines=%d fenced_skips=%d rejoins=%d\n",
		c.Get("smp.dev_ipis"), c.Get("iommu.shootdowns_applied"), c.Get("smp.dev_retransmits"),
		c.Get("smp.dev_timeouts"), c.Get("smp.dev_quarantines"), c.Get("smp.dev_fenced_skips"), c.Get("kernel.dev_rejoins"))
}

func replay(path, machName string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	os_ := trace.NewOpenOS(addr.BaseGeometry(), nil)
	var m machine.Machine
	switch machName {
	case "plb":
		m = machine.MustPLB(machine.DefaultPLBConfig(), os_)
	case "page-group":
		m = machine.NewPG(machine.DefaultPGConfig(), os_)
	case "conventional":
		m = machine.NewConventional(machine.DefaultConvConfig(), os_)
	case "flush":
		m = machine.NewFlush(machine.DefaultConvConfig(), os_)
	default:
		return fmt.Errorf("sasosim: unknown machine %q", machName)
	}
	res, err := trace.Run(m, records)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d records on %s: %d switches, %d cycles\n\ncounters:\n%s",
		res.Records, m.Name(), res.Switches, res.Cycles, m.Counters())
	return nil
}
