// Memory overcommit: a working set four times physical memory, kept
// alive by the kernel's page daemon (FIFO eviction on frame exhaustion)
// over two backing stores — the simulated disk, and Appel & Li's
// compressed in-memory store (Table 1 rows 13-14) — with the protection
// maintenance of every page-out (TLB purge, cache flush) accounted.
package main

import (
	"fmt"
	"log"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/sasos"
)

// compressedPager adapts the compressed store to the kernel's Pager.
type compressedPager struct {
	k     *sasos.Kernel
	store *mem.CompressedStore
}

func (p *compressedPager) Out(vpn sasos.VPN, data []byte) error {
	if err := p.store.Put(uint64(vpn), data); err != nil {
		return err
	}
	p.k.Charge(uint64(len(data))) // 1 cycle/byte compression cost
	return nil
}

func (p *compressedPager) In(vpn sasos.VPN) ([]byte, error) {
	data, err := p.store.Get(uint64(vpn))
	if err != nil {
		return nil, err
	}
	p.k.Charge(uint64(len(data)))
	return data, nil
}

func run(name string, makePager func(*sasos.Kernel) sasos.Pager) {
	cfg := kernel.DefaultConfig(sasos.ModelDomainPage)
	cfg.Frames = 32
	cfg.AutoEvict = true
	k := sasos.New(cfg)
	if makePager != nil {
		k.SetPager(makePager(k))
	}
	app := k.CreateDomain()
	seg := k.CreateSegment(128, sasos.SegmentOptions{Name: "big-heap"}) // 4x memory
	k.Attach(app, seg, sasos.RW)

	// Touch the whole segment twice; verify every tag survives paging.
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 128; p++ {
			if pass == 0 {
				if err := k.Store(app, seg.PageVA(p), p^0xABCD); err != nil {
					log.Fatal(err)
				}
			} else {
				v, err := k.Load(app, seg.PageVA(p))
				if err != nil {
					log.Fatal(err)
				}
				if v != p^0xABCD {
					log.Fatalf("page %d corrupted: %#x", p, v)
				}
			}
		}
	}
	fmt.Printf("%-24s evictions=%-5d pageins=%-5d frames<=%d  kernel cycles=%d\n",
		name,
		k.Counters().Get("kernel.auto_evictions"),
		k.Counters().Get("kernel.pageins"),
		k.Memory().MaxFramesUsed(),
		k.Cycles())
}

func main() {
	fmt.Println("128-page working set in 32 frames, page daemon enabled; all data verified")
	run("disk pager", nil)
	run("compressed-memory pager", func(k *sasos.Kernel) sasos.Pager {
		return &compressedPager{k: k, store: mem.NewCompressedStore()}
	})
}
