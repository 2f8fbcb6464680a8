// Package memsys models the host workstation's memory system: a
// direct-mapped write-back primary cache, a direct-mapped write-back
// secondary cache, main memory, and the shared memory bus (Table 1 of
// the CNI paper).
//
// The cache model is a cost oracle for the simulated CPU: Read and
// Write return the cycles an access costs, which the caller charges to
// its simulated processor with Proc.Advance. Hit is their L1-hit half,
// which a hot caller inlines and backs with Read or Write on a miss.
// Because the Message Cache snoops the *memory bus*, the CPU must flush
// dirty lines to memory before a buffer is handed to the NIC on a
// write-back machine (Section 2.2 of the paper); FlushRange models
// exactly that, and InvalidateRange models the invalidation needed
// before incoming DMA deposits data underneath the caches.
//
// Modeling note: CPU cache-miss traffic does not occupy the bus
// Resource shared with the DMA engines. Charging CPU misses through the
// event queue would force a kernel synchronization on every memory
// access and defeat execution-driven simulation; the paper's simulator
// makes the same simplification. DMA-versus-DMA contention is modeled
// through the per-node bus Resource.
package memsys

import (
	"math/bits"

	"cni/internal/config"
	"cni/internal/sim"
)

// A cache line is one word: (tag+1)<<1 | dirty, so the zero word is an
// invalid line and a probe is one load and one compare.
const lineDirty = 1

// chunkLines is the materialization granularity of the L2's line
// array: 1024 lines (8 KB of model state). A chunk never written is
// the shared zeroChunk, whose lines are all invalid, so a node that
// never touches most of its modeled 1 MB L2 — every board-level
// experiment at 1024 nodes — never pays to zero it. Before this, cache
// construction dominated large fabric sweeps: 1024 nodes allocated
// ~1.6 GB of line arrays to simulate a few KB of traffic each.
const chunkLines = 1024

// zeroChunk stands in for every chunk not yet written, and for an L1
// of at most chunkLines lines until its first fill. It is only ever
// read: a probe into it misses, and a fill materializes lines of its
// own before writing one.
var zeroChunk [chunkLines]uint64

// cache is the secondary cache: direct-mapped, with the line array
// materialized lazily in chunkLines-sized chunks. Sizes are powers of
// two (config.Validate), so the line index is a mask of the tag.
type cache struct {
	chunks    []*[chunkLines]uint64
	lineShift uint
	indexMask uint64
}

// geometry returns the line shift and the line count of a cache of
// sizeBytes in lines of lineBytes; a cache smaller than a line holds
// one.
func geometry(sizeBytes, lineBytes int) (lineShift uint, lines int) {
	return uint(bits.TrailingZeros(uint(lineBytes))), max(sizeBytes/lineBytes, 1)
}

func newCache(sizeBytes, lineBytes int) *cache {
	shift, n := geometry(sizeBytes, lineBytes)
	c := &cache{
		chunks:    make([]*[chunkLines]uint64, (n+chunkLines-1)/chunkLines),
		lineShift: shift,
		indexMask: uint64(n - 1),
	}
	for i := range c.chunks {
		c.chunks[i] = &zeroChunk
	}
	return c
}

// probe returns the line for addr and whether it currently holds addr.
// Only a hit's line may be written: a miss's may lie in zeroChunk.
func (c *cache) probe(addr uint64) (*uint64, bool) {
	tag := addr >> c.lineShift
	idx := tag & c.indexMask
	l := &c.chunks[idx/chunkLines][idx%chunkLines]
	return l, *l>>1 == tag+1
}

// fill installs addr's line, dirty or clean, returning the evicted
// victim's tag and whether that victim was dirty.
func (c *cache) fill(addr uint64, store bool) (victimTag uint64, dirty bool) {
	tag := addr >> c.lineShift
	idx := tag & c.indexMask
	ch := c.chunks[idx/chunkLines]
	if ch == &zeroChunk {
		ch = new([chunkLines]uint64)
		c.chunks[idx/chunkLines] = ch
	}
	return install(&ch[idx%chunkLines], tag, store)
}

// install writes tag's line, dirty or clean, into slot l, returning the
// victim's tag and whether that victim was dirty. dirty is false when
// the slot was empty or already held tag.
func install(l *uint64, tag uint64, store bool) (victimTag uint64, dirty bool) {
	if old := *l; old != 0 && old>>1 != tag+1 {
		victimTag, dirty = old>>1-1, old&lineDirty != 0
	}
	*l = (tag + 1) << 1
	if store {
		*l |= lineDirty
	}
	return victimTag, dirty
}

// Stats counts memory-system events for one hierarchy.
type Stats struct {
	Reads       uint64
	Writes      uint64
	L1Hits      uint64
	L1Misses    uint64
	L2Hits      uint64
	L2Misses    uint64
	WriteBacks  uint64 // dirty evictions + explicit flushes reaching memory
	Flushes     uint64 // FlushRange calls
	FlushedLns  uint64 // dirty lines written back by FlushRange
	Invalidates uint64
}

// Hierarchy is the L1+L2 write-back hierarchy of one workstation node.
type Hierarchy struct {
	// l1 is the primary cache's line array, flat so that a probe is one
	// bounds-checked load at (addr>>l1Shift)&l1Mask. An L1 of at most
	// chunkLines lines is a prefix of zeroChunk until its first fill.
	l1      []uint64
	l1Shift uint
	l1Mask  uint64
	l1Cost  sim.Time // one L1 access, the whole cost of a hit

	l2    *cache
	Stats Stats

	// stored records that a store has reached the hierarchy. Until one
	// does no line can be dirty, so FlushRange knows every probe would
	// find a clean line and skips them.
	stored bool

	lineBytes     int
	missToL2      sim.Time // L2 access on an L1 miss
	missToMemory  sim.Time // memory latency + line transfer over the bus
	writeBackCost sim.Time // one dirty line to memory
}

// New returns a hierarchy sized per cfg.
func New(cfg *config.Config) *Hierarchy {
	lineWords := int64((cfg.CacheLineBytes + cfg.WordBytes - 1) / cfg.WordBytes)
	lineBus := cfg.BusAcquireCycles + lineWords*cfg.BusTransferPerWord
	shift, n := geometry(cfg.L1Bytes, cfg.CacheLineBytes)
	var l1 []uint64
	if n <= chunkLines {
		l1 = zeroChunk[:n:n]
	} else {
		l1 = make([]uint64, n)
	}
	return &Hierarchy{
		l1:            l1,
		l1Shift:       shift,
		l1Mask:        uint64(n - 1),
		l1Cost:        cfg.L1AccessCycles,
		l2:            newCache(cfg.L2Bytes, cfg.CacheLineBytes),
		lineBytes:     cfg.CacheLineBytes,
		missToL2:      cfg.L2AccessCycles,
		missToMemory:  cfg.MemoryLatencyCycles + cfg.BusToCPU(lineBus),
		writeBackCost: cfg.BusToCPU(lineBus),
	}
}

// LineBytes reports the cache line size.
func (h *Hierarchy) LineBytes() int { return h.lineBytes }

// Hit charges a load (or, with store, a store) of addr if the L1 holds
// its line, returning the cost and true; a store dirties the line. On
// a miss it charges and counts nothing and returns false, and the
// caller goes on to Read or Write. Its body makes no call, so it
// inlines into its callers, and an L1 hit from the DSM's accessors
// leaves them for nothing; it probes the L1 itself because a call to
// probeL1 would take its inline cost from 61 to 75 of the budget's 80.
func (h *Hierarchy) Hit(addr uint64, store bool) (sim.Time, bool) {
	tag := addr >> h.l1Shift
	l := &h.l1[tag&h.l1Mask]
	if *l>>1 != tag+1 {
		return 0, false
	}
	h.Stats.L1Hits++
	if store {
		h.Stats.Writes++
		*l |= lineDirty
		h.stored = true
	} else {
		h.Stats.Reads++
	}
	return h.l1Cost, true
}

// Read charges one load from addr and returns its cost in CPU cycles.
func (h *Hierarchy) Read(addr uint64) sim.Time {
	if c, ok := h.Hit(addr, false); ok {
		return c
	}
	h.Stats.Reads++
	return h.miss(addr, false)
}

// Write charges one store to addr (write-allocate, write-back) and
// returns its cost in CPU cycles.
func (h *Hierarchy) Write(addr uint64) sim.Time {
	if c, ok := h.Hit(addr, true); ok {
		return c
	}
	h.Stats.Writes++
	h.stored = true
	return h.miss(addr, true)
}

// probeL1 returns the L1 line for addr and whether it holds addr. Only
// a hit's line may be written: a miss's may lie in zeroChunk.
func (h *Hierarchy) probeL1(addr uint64) (*uint64, bool) {
	tag := addr >> h.l1Shift
	l := &h.l1[tag&h.l1Mask]
	return l, *l>>1 == tag+1
}

// miss charges an access whose line the L1 does not hold: the L2, and
// memory behind it, supply the line, and installing it in the L1 may
// write a dirty victim down.
func (h *Hierarchy) miss(addr uint64, store bool) sim.Time {
	h.Stats.L1Misses++
	cost := h.l1Cost + h.missToL2
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
	// Install in L1, giving an L1 that still shares zeroChunk lines of
	// its own first. A store dirties only the L1 copy (write-back), and
	// the dirt trickles down on eviction or flush. A dirty L1 victim is
	// written down into L2; if the victim is no longer resident in L2
	// (non-inclusive hierarchy), it goes all the way to memory.
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

// ReadRange charges sequential loads covering [addr, addr+n), one
// access per cache line, and returns the total cost.
func (h *Hierarchy) ReadRange(addr uint64, n int) sim.Time {
	var cost sim.Time
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		cost += h.Read(a)
	}
	return cost
}

// WriteRange charges sequential stores covering [addr, addr+n).
func (h *Hierarchy) WriteRange(addr uint64, n int) sim.Time {
	var cost sim.Time
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		cost += h.Write(a)
	}
	return cost
}

// FlushRange writes every dirty line in [addr, addr+n) back to memory
// and cleans it, returning the CPU cost and the number of lines
// written. This is the write-back-architecture consistency action the
// paper requires before an impending message transfer: the Message
// Cache snoops memory writes, so the flush is what publishes CPU stores
// to the snooper. Every line costs its probe, clean or not; a
// hierarchy that was never stored to charges the probes without making
// them.
func (h *Hierarchy) FlushRange(addr uint64, n int) (cost sim.Time, flushed int) {
	h.Stats.Flushes++
	start := addr &^ uint64(h.lineBytes-1)
	if !h.stored {
		lines := (addr + uint64(n) - start + uint64(h.lineBytes-1)) >> h.l1Shift
		return sim.Time(lines) * h.l1Cost, 0
	}
	for a := start; a < addr+uint64(n); a += uint64(h.lineBytes) {
		dirty := false
		if l, ok := h.probeL1(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		if l, ok := h.l2.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		cost += h.l1Cost // probe cost even when clean
		if dirty {
			cost += h.writeBackCost
			flushed++
			h.Stats.WriteBacks++
			h.Stats.FlushedLns++
		}
	}
	return cost, flushed
}

// InvalidateRange drops every line in [addr, addr+n) from both levels
// (without write-back) and returns the CPU cost of the probes. It
// models the cache invalidation before incoming DMA overwrites memory.
func (h *Hierarchy) InvalidateRange(addr uint64, n int) sim.Time {
	var cost sim.Time
	for a := addr &^ uint64(h.lineBytes-1); a < addr+uint64(n); a += uint64(h.lineBytes) {
		if l, ok := h.probeL1(a); ok {
			*l = 0
			h.Stats.Invalidates++
		}
		if l, ok := h.l2.probe(a); ok {
			*l = 0
			h.Stats.Invalidates++
		}
		cost += h.l1Cost
	}
	return cost
}
