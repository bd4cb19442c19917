package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestAllocFreeCycle(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 4)
	if len(m.frames) != 4 || m.FramesInUse() != 0 {
		t.Fatal("fresh memory state wrong")
	}
	var pfns []addr.PFN
	for i := 0; i < 4; i++ {
		pfn, err := m.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		pfns = append(pfns, pfn)
	}
	if _, err := m.Alloc(); err != ErrOutOfFrames {
		t.Fatalf("expected ErrOutOfFrames, got %v", err)
	}
	if m.FramesInUse() != 4 || m.MaxFramesUsed() != 4 {
		t.Fatal("in-use accounting wrong")
	}
	for _, p := range pfns {
		if err := m.Free(p); err != nil {
			t.Fatalf("Free %d: %v", p, err)
		}
	}
	if m.FramesInUse() != 0 {
		t.Fatal("free accounting wrong")
	}
}

func TestAllocLowFramesFirst(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 3)
	for want := addr.PFN(0); want < 3; want++ {
		pfn, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if pfn != want {
			t.Fatalf("alloc order: got %d want %d", pfn, want)
		}
	}
}

func TestFrameDataZeroedOnRealloc(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 1)
	pfn, _ := m.Alloc()
	m.Data(pfn)[0] = 0xAB
	binary.LittleEndian.PutUint64(m.Data(pfn)[8:], 0xdeadbeefcafe)
	if m.Data(pfn)[0] != 0xAB {
		t.Fatal("byte write lost")
	}
	if binary.LittleEndian.Uint64(m.Data(pfn)[8:]) != 0xdeadbeefcafe {
		t.Fatal("word write lost")
	}
	if err := m.Free(pfn); err != nil {
		t.Fatal(err)
	}
	pfn2, _ := m.Alloc()
	if pfn2 != pfn {
		t.Fatalf("expected frame reuse, got %d", pfn2)
	}
	if m.Data(pfn2)[0] != 0 || binary.LittleEndian.Uint64(m.Data(pfn2)[8:]) != 0 {
		t.Fatal("reallocated frame not zeroed")
	}
}

func TestDoubleFreeTypedError(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 1)
	pfn, _ := m.Alloc()
	if err := m.Free(pfn); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(pfn); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free: got %v, want ErrDoubleFree", err)
	}
	if err := m.Free(99); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range free: got %v, want ErrBadFrame", err)
	}
}

func TestAccessUnallocatedPanics(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 2)
	defer func() {
		if recover() == nil {
			t.Error("access to unallocated frame did not panic")
		}
	}()
	m.Data(1)
}

func TestWordRoundTrip(t *testing.T) {
	m := NewMemory(addr.BaseGeometry(), 1)
	pfn, _ := m.Alloc()
	f := func(off uint16, v uint64) bool {
		offset := uint64(off) % (4096 - 8)
		binary.LittleEndian.PutUint64(m.Data(pfn)[offset:], v)
		return binary.LittleEndian.Uint64(m.Data(pfn)[offset:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	data := []byte("hello page")
	d.Write(42, data)
	if _, err := d.Peek(43); err == nil {
		t.Fatal("Peek found a block never written")
	}
	got, err := d.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	// The returned slice must be a copy.
	got[0] = 'X'
	again, _ := d.Read(42)
	if again[0] != 'h' {
		t.Fatal("Read aliases stored block")
	}
	// Stored block must be a copy of the input.
	data[1] = 'Z'
	again, _ = d.Read(42)
	if again[1] != 'e' {
		t.Fatal("Write aliases caller slice")
	}
}

func TestDiskMissingBlock(t *testing.T) {
	d := NewDisk()
	if _, err := d.Read(7); err == nil {
		t.Fatal("expected error for missing block")
	}
	d.Write(7, []byte("x"))
	d.Delete(7)
	if len(d.blocks) != 0 {
		t.Fatal("Delete failed")
	}
}

func TestCompressedStoreRoundTrip(t *testing.T) {
	s := NewCompressedStore()
	// Compressible page: repeated pattern.
	page := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	if err := s.Put(9, page); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.pages[9]; !ok || len(s.pages) != 1 {
		t.Fatal("page not held")
	}
	if r := s.Ratio(); r >= 0.5 {
		t.Errorf("repetitive page compressed poorly: ratio %f", r)
	}
	got, err := s.Get(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("round trip corrupted page")
	}
	if len(s.pages) != 0 {
		t.Fatal("Get did not remove page")
	}
}

func TestCompressedStoreMissing(t *testing.T) {
	s := NewCompressedStore()
	if _, err := s.Get(1); err == nil {
		t.Fatal("expected error for missing page")
	}
	if s.Ratio() != 1.0 {
		t.Fatal("empty store ratio should be 1.0")
	}
}

func TestCompressedStoreOverwrite(t *testing.T) {
	s := NewCompressedStore()
	a := bytes.Repeat([]byte{7}, 4096)
	b := bytes.Repeat([]byte{8, 9}, 2048)
	if err := s.Put(1, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, b); err != nil {
		t.Fatal(err)
	}
	if len(s.pages) != 1 {
		t.Fatalf("store holds %d pages", len(s.pages))
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("overwrite returned stale page")
	}
}

func TestCompressedStoreRandomRoundTrip(t *testing.T) {
	s := NewCompressedStore()
	f := func(data []byte, key uint64) bool {
		if err := s.Put(key, data); err != nil {
			return false
		}
		got, err := s.Get(key)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
