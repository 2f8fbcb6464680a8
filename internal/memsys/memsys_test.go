package memsys

import (
	"testing"
	"testing/quick"

	"cni/internal/config"
	"cni/internal/sim"
)

func newH() (*Hierarchy, config.Config) {
	cfg := config.Default()
	return New(&cfg), cfg
}

func TestColdReadThenHit(t *testing.T) {
	h, cfg := newH()
	cold := h.Read(0x1000)
	if cold <= cfg.L1AccessCycles {
		t.Fatalf("cold read cost %d should include miss penalties", cold)
	}
	warm := h.Read(0x1000)
	if warm != cfg.L1AccessCycles {
		t.Fatalf("warm read cost %d, want L1 hit cost %d", warm, cfg.L1AccessCycles)
	}
	if h.Stats.L1Hits != 1 || h.Stats.L1Misses != 1 || h.Stats.L2Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestSameLineSharesHit(t *testing.T) {
	h, cfg := newH()
	h.Read(0x1000)
	// Any address within the same 32-byte line is a hit.
	if got := h.Read(0x1000 + uint64(cfg.CacheLineBytes) - 1); got != cfg.L1AccessCycles {
		t.Fatalf("same-line read cost %d, want %d", got, cfg.L1AccessCycles)
	}
	if got := h.Read(0x1000 + uint64(cfg.CacheLineBytes)); got == cfg.L1AccessCycles {
		t.Fatal("next line should miss")
	}
}

func TestL2CatchesL1Conflict(t *testing.T) {
	h, cfg := newH()
	a := uint64(0x10_0000)
	b := a + uint64(cfg.L1Bytes) // same L1 index, different tag
	h.Read(a)
	h.Read(b) // evicts a from L1; both now in L2 (different L2 indexes? same stride < L2 size, so distinct)
	cost := h.Read(a)
	want := cfg.L1AccessCycles + cfg.L2AccessCycles
	if cost != want {
		t.Fatalf("L1-conflict reread cost %d, want L2 hit %d", cost, want)
	}
	if h.Stats.L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want 1", h.Stats.L2Hits)
	}
}

func TestDirtyEvictionCostsWriteBack(t *testing.T) {
	h, cfg := newH()
	a := uint64(0x20_0000)
	h.Write(a) // dirty in L1
	// Evict through L1 conflict: dirty victim is absorbed by L2 (present
	// there after the fill), so no memory write-back yet.
	h.Read(a + uint64(cfg.L1Bytes))
	if h.Stats.WriteBacks != 0 {
		t.Fatalf("WriteBacks = %d before L2 eviction, want 0", h.Stats.WriteBacks)
	}
	// Now force the dirty line out of L2 as well.
	h.Read(a + uint64(cfg.L2Bytes))
	if h.Stats.WriteBacks == 0 {
		t.Fatal("evicting a dirty L2 line must cost a write-back")
	}
}

func TestWritesDirtyOnlyUntilFlushed(t *testing.T) {
	h, _ := newH()
	base := uint64(0x40_0000)
	h.Write(base)
	h.Write(base + 64)
	cost, flushed := h.FlushRange(base, 128)
	if flushed != 2 {
		t.Fatalf("flushed %d lines, want 2 (wrote 2 distinct lines)", flushed)
	}
	if cost <= 0 {
		t.Fatal("flush of dirty lines must cost cycles")
	}
	// Second flush: everything clean.
	_, flushed = h.FlushRange(base, 128)
	if flushed != 0 {
		t.Fatalf("re-flush flushed %d lines, want 0", flushed)
	}
}

func TestFlushCleanRangeCheap(t *testing.T) {
	h, _ := newH()
	base := uint64(0x50_0000)
	h.ReadRange(base, 2048)
	dirtyCostBase, flushed := h.FlushRange(base, 2048)
	if flushed != 0 {
		t.Fatalf("clean range flushed %d lines", flushed)
	}
	h.WriteRange(base, 2048)
	dirtyCost, flushed := h.FlushRange(base, 2048)
	if flushed != 2048/h.LineBytes() {
		t.Fatalf("flushed %d, want %d", flushed, 2048/h.LineBytes())
	}
	if dirtyCost <= dirtyCostBase {
		t.Fatal("flushing dirty lines should cost more than probing clean ones")
	}
}

func TestInvalidateForcesMiss(t *testing.T) {
	h, cfg := newH()
	a := uint64(0x60_0000)
	h.Read(a)
	h.InvalidateRange(a, cfg.CacheLineBytes)
	if got := h.Read(a); got == cfg.L1AccessCycles {
		t.Fatal("read after invalidate must miss")
	}
}

func TestInvalidateDropsDirtyWithoutWriteback(t *testing.T) {
	h, _ := newH()
	a := uint64(0x70_0000)
	h.Write(a)
	before := h.Stats.WriteBacks
	h.InvalidateRange(a, 32)
	if h.Stats.WriteBacks != before {
		t.Fatal("invalidate must not write back (incoming DMA overwrites memory)")
	}
	_, flushed := h.FlushRange(a, 32)
	if flushed != 0 {
		t.Fatal("invalidated line must not be flushable")
	}
}

func TestRangeOpsCoverPartialLines(t *testing.T) {
	h, _ := newH()
	// A 1-byte range straddling nothing still touches one line.
	if cost := h.ReadRange(0x1001, 1); cost <= 0 {
		t.Fatal("ReadRange of 1 byte should charge one access")
	}
	// A range starting mid-line and ending mid-line covers both lines.
	h2, _ := newH()
	h2.ReadRange(0x1010, 64) // 32-byte lines: touches lines at 0x1000, 0x1020, 0x1040
	if h2.Stats.Reads != 3 {
		t.Fatalf("ReadRange(0x1010, 64) made %d accesses, want 3", h2.Stats.Reads)
	}
}

func TestCacheStatsConservation(t *testing.T) {
	// Property: reads+writes == L1 hits + L1 misses, and L1 misses ==
	// L2 hits + L2 misses, for arbitrary access sequences.
	f := func(ops []uint16) bool {
		h, _ := newH()
		for i, op := range ops {
			addr := uint64(op) * 8
			if i%3 == 0 {
				h.Write(addr)
			} else {
				h.Read(addr)
			}
		}
		s := h.Stats
		return s.Reads+s.Writes == s.L1Hits+s.L1Misses &&
			s.L1Misses == s.L2Hits+s.L2Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlushIdempotentProperty(t *testing.T) {
	// Property: after FlushRange, a second FlushRange over the same
	// range flushes zero lines, whatever was written before.
	f := func(writes []uint16, span uint8) bool {
		h, _ := newH()
		base := uint64(0x100000)
		n := (int(span)%64 + 1) * h.LineBytes()
		for _, w := range writes {
			h.Write(base + uint64(w)%uint64(n))
		}
		h.FlushRange(base, n)
		_, again := h.FlushRange(base, n)
		return again == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsInL1(t *testing.T) {
	h, cfg := newH()
	// Touch 16 KB (half of L1) twice; second pass must be all hits.
	for a := uint64(0); a < 16<<10; a += uint64(cfg.CacheLineBytes) {
		h.Read(a)
	}
	missesAfterPass1 := h.Stats.L1Misses
	for a := uint64(0); a < 16<<10; a += uint64(cfg.CacheLineBytes) {
		h.Read(a)
	}
	if h.Stats.L1Misses != missesAfterPass1 {
		t.Fatalf("second pass over resident set missed %d times",
			h.Stats.L1Misses-missesAfterPass1)
	}
}

// refFlush is FlushRange without its fast path: it probes every line
// of the range in both levels. The fast path must equal it.
func refFlush(h *Hierarchy, addr uint64, n int) (cost sim.Time, flushed int) {
	h.Stats.Flushes++
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		dirty := false
		if l, ok := h.l1.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		if l, ok := h.l2.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		cost += h.cfg.L1AccessCycles
		if dirty {
			cost += h.writeBackCost
			flushed++
			h.Stats.WriteBacks++
			h.Stats.FlushedLns++
		}
	}
	return cost, flushed
}

// sameLines reports whether two caches of one geometry hold the same
// lines in the same states.
func sameLines(a, b *cache) bool {
	for i := range a.chunks {
		if *a.chunks[i] != *b.chunks[i] {
			return false
		}
	}
	return true
}

// edgeFlushes is a program of flushes on the range edges of a
// 32-byte line, before any store: zero lengths at an aligned and an
// unaligned start, one byte, exactly one line, one line and a byte, two
// bytes across a line end, and two lines from mid-line.
var edgeFlushes = []byte{
	4, 1, 0x00, 0, 4, 1, 0x01, 0, 4, 1, 0x00, 1, 4, 1, 0x00, 32,
	4, 1, 0x00, 33, 4, 1, 0x1f, 2, 4, 1, 0x10, 64,
}

// checkProgram runs a program of memory operations on a hierarchy and
// on a twin whose flushes are refFlush. Each op is four bytes: the
// operation, two address bytes (an unaligned address in a 2 KB window,
// so lines of small caches conflict) and a length from 0 to 255 bytes.
// geom picks an L1 of half a line (which holds one) to 4 lines and an
// L2 of 1 to 32 lines. After every operation the two hierarchies must
// agree on costs, flushed lines, Stats and every line. It reports how
// many flushes came before any store, on the fast path.
func checkProgram(t *testing.T, geom byte, prog []byte) (cleanFlushes int) {
	t.Helper()
	cfg := config.Default()
	cfg.CacheLineBytes = 32
	cfg.L1Bytes = cfg.CacheLineBytes / 2 << (geom & 3)
	cfg.L2Bytes = cfg.CacheLineBytes << (geom >> 2 % 6)
	h, ref := New(&cfg), New(&cfg)
	for i := 0; i+4 <= len(prog); i += 4 {
		op := prog[i] % 6
		addr := (uint64(prog[i+1])<<8 | uint64(prog[i+2])) % 2048
		n := int(prog[i+3])
		var got, want sim.Time
		switch op {
		case 0:
			got, want = h.Read(addr), ref.Read(addr)
		case 1:
			got, want = h.Write(addr), ref.Write(addr)
		case 2:
			got, want = h.ReadRange(addr, n), ref.ReadRange(addr, n)
		case 3:
			got, want = h.WriteRange(addr, n), ref.WriteRange(addr, n)
		case 4:
			if !h.stored {
				cleanFlushes++
			}
			var gotN, wantN int
			got, gotN = h.FlushRange(addr, n)
			want, wantN = refFlush(ref, addr, n)
			if gotN != wantN {
				t.Fatalf("op %d: FlushRange(%#x, %d) flushed %d lines, the probing loop %d", i/4, addr, n, gotN, wantN)
			}
		case 5:
			got, want = h.InvalidateRange(addr, n), ref.InvalidateRange(addr, n)
		}
		if got != want {
			t.Fatalf("op %d (kind %d, %#x, %d): cost %d, reference %d", i/4, op, addr, n, got, want)
		}
		if h.Stats != ref.Stats {
			t.Fatalf("op %d (kind %d, %#x, %d): stats %+v, reference %+v", i/4, op, addr, n, h.Stats, ref.Stats)
		}
		if !sameLines(h.l1, ref.l1) || !sameLines(h.l2, ref.l2) {
			t.Fatalf("op %d (kind %d, %#x, %d): cache lines differ from the reference", i/4, op, addr, n)
		}
	}
	return cleanFlushes
}

// TestFlushMatchesProbingLoop runs edgeFlushes and then seeded random
// programs of 200 operations, on every cache geometry, through
// checkProgram: a flush before any store, on the fast path, and every
// later one equal the probing loop.
func TestFlushMatchesProbingLoop(t *testing.T) {
	rng := sim.NewRNG(1)
	clean := 0
	for i := 0; i < 240; i++ {
		prog := make([]byte, 4*200)
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		checkProgram(t, byte(i%24), edgeFlushes)
		clean += checkProgram(t, byte(i%24), prog)
	}
	if clean == 0 {
		t.Fatal("no random program flushed before its first store: the fast path went untested on random ranges")
	}
}

// FuzzHierarchy is checkProgram on fuzzed programs.
func FuzzHierarchy(f *testing.F) {
	f.Add(byte(0), edgeFlushes)
	f.Add(byte(0), []byte{1, 0, 0, 0, 4, 0, 0, 32, 4, 0, 0, 32})
	f.Add(byte(9), []byte{3, 0, 3, 200, 0, 4, 0, 0, 5, 0, 17, 0, 4, 0, 1, 0, 3, 7, 255, 255, 4, 0, 0, 255})
	f.Add(byte(23), []byte{1, 0, 64, 0, 1, 0, 192, 0, 1, 1, 64, 0, 2, 0, 0, 255, 5, 0, 64, 1, 4, 0, 0, 255})
	f.Fuzz(func(t *testing.T, geom byte, prog []byte) {
		checkProgram(t, geom, prog)
	})
}
