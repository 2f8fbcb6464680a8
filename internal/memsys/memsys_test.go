package memsys

import (
	"slices"
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

// TestL1SharesZeroChunkUntilFirstFill checks that an L1 of at most
// chunkLines lines holds none of its own until a miss fills one: a Hit
// that misses, a flush and an invalidation leave it on zeroChunk. An
// L1 larger than a chunk gets its lines at New.
func TestL1SharesZeroChunkUntilFirstFill(t *testing.T) {
	h, cfg := newH()
	shared := func() bool { return &h.l1[0] == &zeroChunk[0] }
	if lines := cfg.L1Bytes / cfg.CacheLineBytes; !shared() || len(h.l1) != lines {
		t.Fatalf("fresh L1: shared=%v with %d lines, want zeroChunk's first %d", shared(), len(h.l1), lines)
	}
	if c, ok := h.Hit(0x1000, true); ok || c != 0 || h.Stats != (Stats{}) {
		t.Fatalf("Hit on a fresh L1 = %d, %v with stats %+v, want a miss that counts nothing", c, ok, h.Stats)
	}
	h.FlushRange(0x1000, 4096)
	h.InvalidateRange(0x1000, 4096)
	if !shared() {
		t.Fatal("a flush or an invalidation gave the L1 lines of its own")
	}
	h.Read(0x1000)
	if shared() || len(h.l1) != cfg.L1Bytes/cfg.CacheLineBytes {
		t.Fatalf("after the first fill: shared=%v with %d lines", shared(), len(h.l1))
	}
	if c, ok := h.Hit(0x1000, false); !ok || c != cfg.L1AccessCycles {
		t.Fatalf("Hit after the fill = %d, %v, want %d, true", c, ok, cfg.L1AccessCycles)
	}
	if zeroChunk != [chunkLines]uint64{} {
		t.Fatal("zeroChunk was written")
	}

	cfg.CacheLineBytes = 8 // 4,096 lines in the 32 KB L1
	big := New(&cfg)
	if len(big.l1) != cfg.L1Bytes/8 || &big.l1[0] == &zeroChunk[0] {
		t.Fatalf("an L1 of %d lines should get them at New", cfg.L1Bytes/8)
	}
}

// refAccess is the access path as one function, as it was before Hit
// split the L1 hit off: count the access, probe the L1 and, on a miss,
// the L2, memory and the L1 fill. Read, Write, and Hit followed by Read
// or Write on a miss, must equal it.
func refAccess(h *Hierarchy, addr uint64, store bool) sim.Time {
	if store {
		h.Stats.Writes++
		h.stored = true
	} else {
		h.Stats.Reads++
	}
	cost := h.l1Cost
	if l1, hit1 := h.probeL1(addr); hit1 {
		h.Stats.L1Hits++
		if store {
			*l1 |= lineDirty
		}
		return cost
	}
	h.Stats.L1Misses++
	cost += h.missToL2
	if _, hit2 := h.l2.probe(addr); hit2 {
		h.Stats.L2Hits++
	} else {
		h.Stats.L2Misses++
		cost += h.missToMemory
		if _, dirty := h.l2.fill(addr, false); dirty {
			h.Stats.WriteBacks++
			cost += h.writeBackCost
		}
	}
	if &h.l1[0] == &zeroChunk[0] {
		h.l1 = make([]uint64, len(h.l1))
	}
	tag := addr >> h.l1Shift
	if victimTag, dirty := install(&h.l1[tag&h.l1Mask], tag, store); dirty {
		vaddr := victimTag << h.l1Shift
		cost += h.missToL2
		if l2v, ok := h.l2.probe(vaddr); ok {
			*l2v |= lineDirty
		} else {
			h.Stats.WriteBacks++
			cost += h.writeBackCost
		}
	}
	return cost
}

// refRange is ReadRange (or, with store, WriteRange) over refAccess.
func refRange(h *Hierarchy, addr uint64, n int, store bool) sim.Time {
	var cost sim.Time
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		cost += refAccess(h, a, store)
	}
	return cost
}

// refFlush is FlushRange without its fast path: it probes every line
// of the range in both levels. The fast path must equal it.
func refFlush(h *Hierarchy, addr uint64, n int) (cost sim.Time, flushed int) {
	h.Stats.Flushes++
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		dirty := false
		if l, ok := h.probeL1(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		if l, ok := h.l2.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		cost += h.l1Cost
		if dirty {
			cost += h.writeBackCost
			flushed++
			h.Stats.WriteBacks++
			h.Stats.FlushedLns++
		}
	}
	return cost, flushed
}

// sameLines reports whether two hierarchies of one geometry hold the
// same lines in the same states, in both levels.
func sameLines(a, b *Hierarchy) bool {
	if !slices.Equal(a.l1, b.l1) {
		return false
	}
	for i := range a.l2.chunks {
		if *a.l2.chunks[i] != *b.l2.chunks[i] {
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

// geometries is the number of cache geometries checkProgram picks
// from: 24 of 32-byte lines, and one L1 larger than a chunk.
const geometries = 25

// checkProgram runs a program of memory operations on a hierarchy and
// on a twin driven through refAccess and refFlush. Each op is four
// bytes: the operation, two address bytes and a length from 0 to 255
// bytes. The operation byte modulo 6 picks it; a load or store whose
// byte divided by 6 is odd goes through Hit and, on a miss, Read or
// Write, as the DSM's accessors make it, and any other through Read or
// Write alone. geom modulo geometries picks the caches: of 32-byte
// lines, an L1 of half a line (which holds one) to 4 lines and an L2
// of 1 to 32 lines, over an unaligned address in a 2 KB window so
// lines conflict; or, for the last, a 32 KB L1 of 8-byte lines (4,096,
// more than a chunk) over a 16 KB L2, in a 64 KB window. After every
// operation the two hierarchies must agree on costs, flushed lines,
// Stats and every line. It reports how many flushes came before any
// store, on the fast path.
func checkProgram(t *testing.T, geom byte, prog []byte) (cleanFlushes int) {
	t.Helper()
	cfg := config.Default()
	cfg.CacheLineBytes = 32
	window := uint64(2048)
	if g := geom % geometries; g < geometries-1 {
		cfg.L1Bytes = cfg.CacheLineBytes / 2 << (g & 3)
		cfg.L2Bytes = cfg.CacheLineBytes << (g >> 2)
	} else {
		cfg.CacheLineBytes, cfg.L1Bytes, cfg.L2Bytes = 8, 32<<10, 16<<10
		window = 64 << 10
	}
	h, ref := New(&cfg), New(&cfg)
	for i := 0; i+4 <= len(prog); i += 4 {
		op := prog[i] % 6
		addr := (uint64(prog[i+1])<<8 | uint64(prog[i+2])) % window
		n := int(prog[i+3])
		var got, want sim.Time
		switch op {
		case 0, 1:
			store := op == 1
			want = refAccess(ref, addr, store)
			hit := false
			if prog[i]/6%2 == 1 {
				before := h.Stats
				if got, hit = h.Hit(addr, store); !hit && (got != 0 || h.Stats != before) {
					t.Fatalf("op %d: Hit(%#x, %v) missed, charging %d and counting %+v after %+v", i/4, addr, store, got, h.Stats, before)
				}
			}
			switch {
			case hit:
			case store:
				got = h.Write(addr)
			default:
				got = h.Read(addr)
			}
		case 2:
			got, want = h.ReadRange(addr, n), refRange(ref, addr, n, false)
		case 3:
			got, want = h.WriteRange(addr, n), refRange(ref, addr, n, true)
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
		if !sameLines(h, ref) {
			t.Fatalf("op %d (kind %d, %#x, %d): cache lines differ from the reference", i/4, op, addr, n)
		}
	}
	return cleanFlushes
}

// TestFlushMatchesProbingLoop runs edgeFlushes and then seeded random
// programs of 200 operations, ten on every cache geometry, through
// checkProgram: the split access path equals the single function, a
// flush before any store, on the fast path, and every later one equal
// the probing loop.
func TestFlushMatchesProbingLoop(t *testing.T) {
	rng := sim.NewRNG(1)
	clean := 0
	for i := 0; i < 10*geometries; i++ {
		prog := make([]byte, 4*200)
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		checkProgram(t, byte(i%geometries), edgeFlushes)
		clean += checkProgram(t, byte(i%geometries), prog)
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
	// The large L1: a store, then through Hit a conflicting load 32 KB
	// on that evicts it dirty, a store hit, a load of the first line
	// that evicts that one dirty in turn, and a flush.
	f.Add(byte(24), []byte{1, 0, 8, 0, 6, 0x80, 8, 0, 7, 0x80, 8, 0, 6, 0, 8, 0, 4, 0x80, 0, 255})
	f.Fuzz(func(t *testing.T, geom byte, prog []byte) {
		checkProgram(t, geom, prog)
	})
}
