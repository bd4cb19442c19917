package mem

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// CompressedStore holds pages compressed in memory, the mechanism behind
// Appel & Li's compression paging workload (Table 1, last two rows): on
// page-out the server compresses the page and keeps it in a (cheaper)
// compressed pool instead of (or before) writing it to disk.
type CompressedStore struct {
	pages       map[uint64][]byte
	rawBytes    uint64
	storedBytes uint64

	// Reused flate state: a flate.Writer is ~600 KB of window and huffman
	// tables, so allocating one per page-out dominated whole-suite
	// allocation. Like the maps above, these make the store single-user;
	// each kernel owns its store, matching the simulator's threading model.
	w    *flate.Writer
	r    io.ReadCloser
	wbuf bytes.Buffer
	rbuf bytes.Buffer
}

// NewCompressedStore creates an empty store. It charges no cycles: its
// user charges the compression work to a kernel.
func NewCompressedStore() *CompressedStore {
	return &CompressedStore{pages: make(map[uint64][]byte)}
}

// Put compresses data and stores it under key.
func (s *CompressedStore) Put(key uint64, data []byte) error {
	s.wbuf.Reset()
	if s.w == nil {
		w, err := flate.NewWriter(&s.wbuf, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("mem: compress: %w", err)
		}
		s.w = w
	} else {
		s.w.Reset(&s.wbuf)
	}
	if _, err := s.w.Write(data); err != nil {
		return fmt.Errorf("mem: compress: %w", err)
	}
	if err := s.w.Close(); err != nil {
		return fmt.Errorf("mem: compress: %w", err)
	}
	if prev, ok := s.pages[key]; ok {
		s.storedBytes -= uint64(len(prev))
		s.rawBytes -= uint64(len(data))
	}
	s.pages[key] = append([]byte(nil), s.wbuf.Bytes()...)
	s.rawBytes += uint64(len(data))
	s.storedBytes += uint64(s.wbuf.Len())
	return nil
}

// Get decompresses and returns the page stored under key, removing it from
// the store. The returned slice aliases a buffer reused by the next Get;
// callers must copy it if they retain it past their next store operation
// (the kernel's page-in copies it straight into the frame).
func (s *CompressedStore) Get(key uint64) ([]byte, error) {
	c, ok := s.pages[key]
	if !ok {
		return nil, fmt.Errorf("mem: compressed page %#x not present", key)
	}
	if s.r == nil {
		s.r = flate.NewReader(bytes.NewReader(c))
	} else if err := s.r.(flate.Resetter).Reset(bytes.NewReader(c), nil); err != nil {
		return nil, fmt.Errorf("mem: decompress: %w", err)
	}
	s.rbuf.Reset()
	if _, err := io.Copy(&s.rbuf, s.r); err != nil {
		return nil, fmt.Errorf("mem: decompress: %w", err)
	}
	data := s.rbuf.Bytes()
	if err := s.r.Close(); err != nil {
		return nil, fmt.Errorf("mem: decompress: %w", err)
	}
	delete(s.pages, key)
	s.storedBytes -= uint64(len(c))
	s.rawBytes -= uint64(len(data))
	return data, nil
}

// Ratio returns stored/raw bytes for pages currently held (1.0 when empty).
func (s *CompressedStore) Ratio() float64 {
	if s.rawBytes == 0 {
		return 1.0
	}
	return float64(s.storedBytes) / float64(s.rawBytes)
}
