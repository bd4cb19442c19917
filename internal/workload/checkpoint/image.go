package checkpoint

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Image is a stable-storage checkpoint of pages, keyed by global VPN —
// the single address space gives every page a unique name, so an image
// written by one kernel can restore pages into a different kernel
// instance (DSM crash recovery reboots a node and restores its owned
// pages from the image the crashed instance wrote). The image survives
// the kernel that produced it: it holds its own simulated disk.
//
// All costs are charged to the kernel passed to each operation: a page
// copy for the read/write and the disk latency for the stable store.
type Image struct {
	disk     *mem.Disk
	readLat  uint64
	writeLat uint64
}

// NewImage creates an empty image backed by a stable store with the
// given per-operation latencies in cycles (typically the cost model's
// DiskRead/DiskWrite).
func NewImage(readLat, writeLat uint64) *Image {
	return &Image{disk: mem.NewDisk(), readLat: readLat, writeLat: writeLat}
}

// NewImageFor creates an image with the stable-store latencies of the
// kernel's cost model.
func NewImageFor(k *kernel.Kernel) *Image {
	c := k.Machine().Costs()
	return NewImage(c.DiskRead, c.DiskWrite)
}

// SavePage reads the page's current contents from k in kernel mode and
// writes them to the stable store, charging the copy and the disk write
// to k.
func (im *Image) SavePage(k *kernel.Kernel, vpn addr.VPN) error {
	data, err := k.KernelPeekPage(vpn)
	if err != nil {
		return fmt.Errorf("checkpoint: image save %#x: %w", uint64(vpn), err)
	}
	im.Put(k, vpn, data)
	return nil
}

// Put stores already-read page bytes in the image, charging only the
// disk write to k (the caller already paid for the read).
func (im *Image) Put(k *kernel.Kernel, vpn addr.VPN, data []byte) {
	im.disk.Write(uint64(vpn), data)
	k.Charge(im.writeLat)
}

// RestorePage reads the page's saved contents from the stable store and
// writes them into k in kernel mode, charging the disk read and the
// copy to k. The page keeps its saved bytes even if k is a fresh kernel
// instance (reboot-and-recover).
func (im *Image) RestorePage(k *kernel.Kernel, vpn addr.VPN) error {
	data, err := im.disk.Peek(uint64(vpn))
	if err != nil {
		return fmt.Errorf("checkpoint: image restore %#x: %w", uint64(vpn), err)
	}
	k.Charge(im.readLat)
	return k.KernelWritePage(vpn, data)
}

// Read returns the saved bytes for a page without charging any kernel
// (callers serving remote fetches charge the transfer themselves).
func (im *Image) Read(vpn addr.VPN) ([]byte, error) {
	return im.disk.Read(uint64(vpn))
}
