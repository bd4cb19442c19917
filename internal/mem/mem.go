// Package mem models the physical memory system beneath the simulator:
// a physical frame pool with real per-frame byte storage, a backing store
// (disk) with latency accounting, and a compressed in-memory page store
// used by the Appel-Li compression paging workload.
//
// Workloads operate on real bytes so that the functional results of a run
// (garbage-collected object graphs, checkpointed images, DSM page copies,
// compressed pages) can be verified, not just the protection traffic.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// ErrOutOfFrames is returned when the physical frame pool is exhausted.
var ErrOutOfFrames = errors.New("mem: out of physical frames")

// ErrBadFrame is returned for operations naming a frame outside the pool.
// Reachable from simulated failures (a corrupted translation entry can
// carry a stale or flipped frame number), so it is a typed error rather
// than a panic — see the panic-vs-error policy in DESIGN.md §8.
var ErrBadFrame = errors.New("mem: frame number out of range")

// ErrDoubleFree is returned when a frame not currently allocated is
// freed. Reachable from simulated failures (a buggy pager or a paging
// path interrupted by an injected fault can attempt to release a frame
// twice), so it is a typed error rather than a panic.
var ErrDoubleFree = errors.New("mem: double free of frame")

// Memory is a pool of physical page frames with byte-addressable contents.
// Construct with NewMemory. Memory is not safe for concurrent use.
type Memory struct {
	geo     addr.Geometry
	frames  []frame
	free    []addr.PFN
	maxUsed int
}

type frame struct {
	data  []byte
	inUse bool
}

// NewMemory creates a Memory with nframes frames of the given geometry.
func NewMemory(geo addr.Geometry, nframes int) *Memory {
	m := &Memory{geo: geo, frames: make([]frame, nframes)}
	m.free = make([]addr.PFN, 0, nframes)
	// Hand out low frame numbers first for reproducibility.
	for i := nframes - 1; i >= 0; i-- {
		m.free = append(m.free, addr.PFN(i))
	}
	return m
}

// FramesInUse returns the number of currently allocated frames.
func (m *Memory) FramesInUse() int { return len(m.frames) - len(m.free) }

// MaxFramesUsed returns the high-water mark of allocated frames.
func (m *Memory) MaxFramesUsed() int { return m.maxUsed }

// Alloc allocates a zeroed frame.
func (m *Memory) Alloc() (addr.PFN, error) {
	if len(m.free) == 0 {
		return 0, ErrOutOfFrames
	}
	pfn := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	f := &m.frames[pfn]
	f.inUse = true
	if f.data != nil {
		clear(f.data)
	}
	if used := m.FramesInUse(); used > m.maxUsed {
		m.maxUsed = used
	}
	return pfn, nil
}

// Free returns a frame to the pool. Freeing an out-of-range or
// unallocated frame returns a typed error (ErrBadFrame, ErrDoubleFree):
// both are reachable when simulated failures corrupt the paths that
// track frame ownership, and the chaos runner asserts on them.
func (m *Memory) Free(pfn addr.PFN) error {
	if int(pfn) >= len(m.frames) {
		return fmt.Errorf("%w: %d (%d frames)", ErrBadFrame, pfn, len(m.frames))
	}
	f := &m.frames[pfn]
	if !f.inUse {
		return fmt.Errorf("%w: %d", ErrDoubleFree, pfn)
	}
	f.inUse = false
	m.free = append(m.free, pfn)
	return nil
}

func (m *Memory) frame(pfn addr.PFN) *frame {
	if int(pfn) >= len(m.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range (%d frames)", pfn, len(m.frames)))
	}
	return &m.frames[pfn]
}

// Data returns the contents of an allocated frame, materializing storage
// on first touch. The returned slice aliases the frame; writes through it
// are writes to physical memory.
//
// Data panics on an out-of-range or unallocated frame: callers reach it
// only through translations the kernel itself installed, so a bad frame
// number here is a simulator invariant violation no simulated failure
// can produce (the corruption hooks mutate hardware-cache entries, which
// are re-checked against the kernel's tables before bytes move). This is
// the programmer-error side of the panic-vs-error split; see Free for
// the reachable side.
func (m *Memory) Data(pfn addr.PFN) []byte {
	f := m.frame(pfn)
	if !f.inUse {
		panic(fmt.Sprintf("mem: access to unallocated frame %d", pfn))
	}
	if f.data == nil {
		f.data = make([]byte, m.geo.PageSize())
	}
	return f.data
}
