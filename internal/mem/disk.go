package mem

import "fmt"

// Disk is a simulated backing store: a keyed block store used for paging
// and checkpointing. Keys are caller-chosen 64-bit block identifiers
// (typically a virtual page number, since the single address space gives
// every page a unique global name). The disk keeps no clock: its users
// charge each operation's latency to a kernel.
type Disk struct {
	blocks map[uint64][]byte
}

// NewDisk creates an empty Disk.
func NewDisk() *Disk { return &Disk{blocks: make(map[uint64][]byte)} }

// Write stores a copy of data at the given block key.
func (d *Disk) Write(key uint64, data []byte) {
	d.blocks[key] = append([]byte(nil), data...)
}

// Read returns a copy of the block at key, or an error if absent.
func (d *Disk) Read(key uint64) ([]byte, error) {
	b, err := d.Peek(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Peek is Read without the copy: the returned slice aliases the stored
// block and must be treated as read-only. Write stores a fresh copy and
// Delete only drops the block, so the slice stays intact after either.
// Hot transfer paths whose consumers copy the bytes anyway (page-in,
// image restore) use this to avoid a per-block intermediate buffer.
func (d *Disk) Peek(key uint64) ([]byte, error) {
	b, ok := d.blocks[key]
	if !ok {
		return nil, fmt.Errorf("mem: disk block %#x not present", key)
	}
	return b, nil
}

// Delete removes the block at key if present.
func (d *Disk) Delete(key uint64) { delete(d.blocks, key) }
