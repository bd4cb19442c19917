package mem

import "fmt"

// Disk is a simulated backing store: a keyed block store with fixed
// per-operation latency, used for paging and checkpointing. Keys are
// caller-chosen 64-bit block identifiers (typically a virtual page number,
// since the single address space gives every page a unique global name).
type Disk struct {
	blocks       map[uint64][]byte
	readLatency  uint64
	writeLatency uint64
	reads        uint64
	writes       uint64
	cycles       uint64
}

// NewDisk creates a Disk with the given per-operation latencies in cycles.
func NewDisk(readLatency, writeLatency uint64) *Disk {
	return &Disk{
		blocks:       make(map[uint64][]byte),
		readLatency:  readLatency,
		writeLatency: writeLatency,
	}
}

// Write stores a copy of data at the given block key.
func (d *Disk) Write(key uint64, data []byte) {
	d.blocks[key] = append([]byte(nil), data...)
	d.writes++
	d.cycles += d.writeLatency
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
// Accounting is identical to Read. Hot transfer paths whose consumers
// copy the bytes anyway (page-in, image restore) use this to avoid a
// per-block intermediate buffer.
func (d *Disk) Peek(key uint64) ([]byte, error) {
	b, ok := d.blocks[key]
	if !ok {
		return nil, fmt.Errorf("mem: disk block %#x not present", key)
	}
	d.reads++
	d.cycles += d.readLatency
	return b, nil
}

// Has reports whether a block exists at key.
func (d *Disk) Has(key uint64) bool {
	_, ok := d.blocks[key]
	return ok
}

// Delete removes the block at key if present.
func (d *Disk) Delete(key uint64) { delete(d.blocks, key) }

// Len returns the number of stored blocks.
func (d *Disk) Len() int { return len(d.blocks) }

// Stats returns operation counts and total latency cycles charged.
func (d *Disk) Stats() (reads, writes, cycles uint64) { return d.reads, d.writes, d.cycles }
