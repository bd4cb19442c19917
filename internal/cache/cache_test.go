package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

func smallCfg(asidTags bool) Config {
	return Config{
		LineShift: 5, // 32-byte lines
		Assoc:     assoc.Config{Sets: 16, Ways: 2, Policy: assoc.LRU},
		ASIDTags:  asidTags,
	}
}

func TestVirtualAccessMissFillHit(t *testing.T) {
	ctrs := &stats.Counters{}
	v := New(smallCfg(false), ctrs, "dc")
	if v.Access(0, 0x1000, false) {
		t.Fatal("hit on empty cache")
	}
	v.Fill(0, 0x1000, 3, false)
	if !v.Access(0, 0x1000, false) {
		t.Fatal("miss after fill")
	}
	// Same line, different byte.
	if !v.Access(0, 0x101f, false) {
		t.Fatal("miss within line")
	}
	// Next line misses.
	if v.Access(0, 0x1020, false) {
		t.Fatal("hit across line boundary")
	}
	if ctrs.Get("dc.hit") != 2 || ctrs.Get("dc.miss") != 2 || ctrs.Get("dc.fill") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

func TestVirtualDirtyWriteback(t *testing.T) {
	ctrs := &stats.Counters{}
	// Direct-mapped, single set: any two distinct lines conflict.
	v := New(Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 1, Ways: 1, Policy: assoc.LRU},
	}, ctrs, "dc")
	v.Fill(0, 0x1000, 1, true) // dirty fill
	if wb := v.Fill(0, 0x2000, 2, false); !wb {
		t.Fatal("dirty victim not written back")
	}
	if wb := v.Fill(0, 0x3000, 3, false); wb {
		t.Fatal("clean victim written back")
	}
	if ctrs.Get("dc.writeback") != 1 {
		t.Fatalf("writeback = %d", ctrs.Get("dc.writeback"))
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	ctrs := &stats.Counters{}
	v := New(Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 1, Ways: 1, Policy: assoc.LRU},
	}, ctrs, "dc")
	v.Fill(0, 0x1000, 1, false) // clean fill
	v.Access(0, 0x1000, true)   // store hit dirties it
	if wb := v.Fill(0, 0x2000, 2, false); !wb {
		t.Fatal("line dirtied by store hit not written back")
	}
}

func TestFlushPage(t *testing.T) {
	ctrs := &stats.Counters{}
	v := New(Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 256, Ways: 2, Policy: assoc.LRU},
	}, ctrs, "dc")
	geo := addr.BaseGeometry()
	// Fill 4 lines of page 1, one dirty, plus a line of page 2.
	v.Fill(0, 0x1000, 1, false)
	v.Fill(0, 0x1020, 1, true)
	v.Fill(0, 0x1040, 1, false)
	v.Fill(0, 0x1060, 1, false)
	v.Fill(0, 0x2000, 2, true)
	flushed, dirty := v.FlushPage(0x1008, geo)
	if flushed != 4 || dirty != 1 {
		t.Fatalf("FlushPage = %d,%d", flushed, dirty)
	}
	if v.c.Ref(v.key(0, 0x1000)) != nil {
		t.Fatal("line survives page flush")
	}
	if v.c.Ref(v.key(0, 0x2000)) == nil {
		t.Fatal("other page's line flushed")
	}
	if ctrs.Get("dc.flushed_lines") != 4 || ctrs.Get("dc.flush_writebacks") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

// TestFlushPageMatchesWholeCachePurge checks that the per-page flushes,
// which visit only the sets a page's lines index, flush exactly what a
// purge of the whole cache would: the same lines and dirty counts, and
// the same survivors in the same places. The ASID-tagged cache holds the
// page's lines under several spaces (synonyms of one frame in one set)
// beside lines of other pages that share those sets; the tag-less cache
// (the VIPT organization's, named by physical address) holds each line
// once.
func TestFlushPageMatchesWholeCachePurge(t *testing.T) {
	geo := addr.BaseGeometry()
	for _, sets := range []int{16, 256, 1024} {
		for _, tags := range []bool{true, false} {
			cfg := Config{LineShift: 5, Assoc: assoc.Config{Sets: sets, Ways: 4, Policy: assoc.LRU}, ASIDTags: tags}
			// The page at 0x10000 and the pages that alias its sets: one
			// set span below and above it, and the next page.
			span := addr.VA(sets) << cfg.LineShift
			vas := []addr.VA{0x10000, 0x10000 - span, 0x10000 + span, 0x11000}
			fill := func(v *Cache) {
				rng := rand.New(rand.NewSource(int64(sets)))
				for i := 0; i < 3*sets; i++ {
					page := vas[rng.Intn(len(vas))]
					va := page + addr.VA(rng.Intn(128))<<cfg.LineShift
					v.Fill(addr.ASID(rng.Intn(3)), va, addr.PFN(page>>12), rng.Intn(3) == 0)
				}
			}
			flushed := New(cfg, &stats.Counters{}, "dc")
			purged := New(cfg, &stats.Counters{}, "dc")
			fill(flushed)
			fill(purged)

			n, dirty := flushed.FlushPage(0x10008, geo)
			wantN, wantDirty := purgeRange(purged.c, 0x10000>>cfg.LineShift, 128)
			purged.nDirty -= wantDirty
			if n != wantN || dirty != wantDirty || n == 0 || dirty == 0 {
				t.Fatalf("sets=%d tags=%v: FlushPage = %d,%d, whole-cache purge %d,%d", sets, tags, n, dirty, wantN, wantDirty)
			}
			if flushed.nDirty != purged.nDirty {
				t.Fatalf("sets=%d tags=%v: dirty lines left %d, whole-cache purge %d", sets, tags, flushed.nDirty, purged.nDirty)
			}
			if got, want := residents(flushed.c), residents(purged.c); !slices.Equal(got, want) {
				t.Fatalf("sets=%d tags=%v: FlushPage left %v, whole-cache purge %v", sets, tags, got, want)
			}
		}
	}
}

// purgeRange purges lines [first, first+n) from the whole of c, the
// reference for the per-set flushes.
func purgeRange(c *assoc.Cache[lineKey, lineState], first, n uint64) (removed, dirty int) {
	removed, _ = c.PurgeIf(func(k lineKey, st lineState) bool {
		if k.line >= first && k.line < first+n {
			if st.dirty {
				dirty++
			}
			return true
		}
		return false
	})
	return removed, dirty
}

// residents lists c's resident lines in ForEach order.
func residents(c *assoc.Cache[lineKey, lineState]) []string {
	var out []string
	c.ForEach(func(k lineKey, st lineState) bool {
		out = append(out, fmt.Sprintf("%v:%v", k, st))
		return true
	})
	return out
}

func TestFlushAll(t *testing.T) {
	ctrs := &stats.Counters{}
	v := New(smallCfg(false), ctrs, "dc")
	v.Fill(0, 0x1000, 1, true)
	v.Fill(0, 0x2000, 2, false)
	flushed, dirty := v.FlushAll()
	if flushed != 2 || dirty != 1 {
		t.Fatalf("FlushAll = %d,%d", flushed, dirty)
	}
	if v.c.Len() != 0 {
		t.Fatal("cache not empty")
	}
}

func TestHomonymsWithoutASIDTags(t *testing.T) {
	// Without ASID tags, two spaces using the same VA for different data
	// collide on one line: the homonym problem. The cache cannot tell
	// them apart — space is ignored — so the second space "hits" on the
	// first space's line (stale data). This is why such systems must
	// flush on switch.
	ctrs := &stats.Counters{}
	v := New(smallCfg(false), ctrs, "dc")
	v.Fill(1, 0x1000, 10, false) // space 1, frame 10
	if !v.Access(2, 0x1000, false) {
		t.Fatal("homonym did not alias (expected false hit)")
	}
}

func TestASIDTagsSeparateHomonyms(t *testing.T) {
	ctrs := &stats.Counters{}
	v := New(smallCfg(true), ctrs, "dc")
	v.Fill(1, 0x1000, 10, false)
	if v.Access(2, 0x1000, false) {
		t.Fatal("ASID tags failed to separate homonyms")
	}
	v.Fill(2, 0x1000, 20, false)
	if !v.Access(1, 0x1000, false) || !v.Access(2, 0x1000, false) {
		t.Fatal("both homonym lines should be resident")
	}
}

func TestASIDTagsCreateSynonyms(t *testing.T) {
	// With ASID tags, a frame shared between two spaces at the same VA
	// occupies two lines: the synonym problem (Section 2.2).
	ctrs := &stats.Counters{}
	v := New(smallCfg(true), ctrs, "dc")
	v.Fill(1, 0x1000, 10, false)
	v.Fill(2, 0x1000, 10, true) // same frame, space 2, dirty
	if n := v.SynonymLines(addr.BaseGeometry()); n != 2 {
		t.Fatalf("SynonymLines = %d, want 2", n)
	}
}

func TestSingleSpaceNoSynonyms(t *testing.T) {
	// A single address space maps each frame at exactly one VA, so no
	// synonyms can arise regardless of how many domains share the data.
	ctrs := &stats.Counters{}
	v := New(smallCfg(false), ctrs, "dc")
	v.Fill(0, 0x1000, 10, true)
	v.Fill(0, 0x2000, 20, false)
	v.Fill(0, 0x1020, 10, false) // second line of the shared page
	if n := v.SynonymLines(addr.BaseGeometry()); n != 0 {
		t.Fatalf("SynonymLines = %d, want 0", n)
	}
}

func TestLinesPerPage(t *testing.T) {
	v := New(smallCfg(false), &stats.Counters{}, "dc")
	if n := v.LinesPerPage(addr.BaseGeometry()); n != 128 {
		t.Fatalf("LinesPerPage = %d, want 128 (4096/32)", n)
	}
	if v.Capacity() != 32 {
		t.Fatalf("Capacity = %d", v.Capacity())
	}
}

func TestValidVIPTRoundsIndexBitsUp(t *testing.T) {
	geo := addr.BaseGeometry() // 4 KB pages: 12 offset bits
	pow2 := Config{LineShift: 5, Assoc: assoc.Config{Sets: 128, Ways: 16, Policy: assoc.LRU}}
	if !ValidVIPT(pow2, geo) {
		t.Fatal("5 line bits + 7 index bits = 12 must fit a 4 KB page offset")
	}
	// A non-power-of-two set count needs ceil(log2(Sets)) index bits: 200
	// sets need 8 bits, so 5+8 = 13 spills into translated bits. Floor
	// rounding (7 bits) wrongly validated this geometry.
	nonPow2 := Config{LineShift: 5, Assoc: assoc.Config{Sets: 200, Ways: 16, Policy: assoc.LRU}}
	if ValidVIPT(nonPow2, geo) {
		t.Fatal("200 sets need 8 index bits; 5+8 > 12 must be rejected")
	}
	if !ValidVIPT(nonPow2, addr.NewGeometry(13)) {
		t.Fatal("200 sets fit an 8 KB page offset (5+8 <= 13)")
	}
	direct := Config{LineShift: 5, Assoc: assoc.Config{Sets: 1, Ways: 16, Policy: assoc.LRU}}
	if !ValidVIPT(direct, geo) {
		t.Fatal("a single-set cache needs no index bits")
	}
}

func TestSynonymLinesSuperPageGeometry(t *testing.T) {
	// Two lines at different offsets inside one 8 KB super-page share a
	// frame but are NOT synonyms: with base-page (4 KB) arithmetic their
	// line-in-page offsets alias mod 128 and were miscounted as such.
	geo := addr.NewGeometry(13)
	v := New(smallCfg(true), &stats.Counters{}, "dc")
	v.Fill(1, 0x0000, 10, false)
	v.Fill(1, 0x1000, 10, false) // same super-page frame, 4 KB deeper
	if n := v.SynonymLines(geo); n != 0 {
		t.Fatalf("SynonymLines = %d, want 0 (distinct offsets of one super-page)", n)
	}

	// A real synonym — the same super-page line resident under two address
	// spaces — is still counted.
	v2 := New(smallCfg(true), &stats.Counters{}, "dc")
	v2.Fill(1, 0x1000, 10, false)
	v2.Fill(2, 0x1000, 10, true)
	if n := v2.SynonymLines(geo); n != 2 {
		t.Fatalf("SynonymLines = %d, want 2", n)
	}
}
