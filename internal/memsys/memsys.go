// Package memsys models the host workstation's memory system: a
// direct-mapped write-back primary cache, a direct-mapped write-back
// secondary cache, main memory, and the shared memory bus (Table 1 of
// the CNI paper).
//
// The cache model is a cost oracle for the simulated CPU: Read and
// Write return the cycles an access costs, which the caller charges to
// its simulated processor with Proc.Advance. Because the Message Cache
// snoops the *memory bus*, the CPU must flush dirty lines to memory
// before a buffer is handed to the NIC on a write-back machine
// (Section 2.2 of the paper); FlushRange models exactly that, and
// InvalidateRange models the invalidation needed before incoming DMA
// deposits data underneath the caches.
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

// chunkLines is the materialization granularity of a cache's line
// array: 1024 lines (8 KB of model state). A chunk never written is
// the shared zeroChunk, whose lines are all invalid, so a node that
// never touches most of its modeled 1 MB L2 — every board-level
// experiment at 1024 nodes — never pays to zero it. Before this, cache
// construction dominated large fabric sweeps: 1024 nodes allocated
// ~1.6 GB of line arrays to simulate a few KB of traffic each.
const chunkLines = 1024

// zeroChunk stands in for every chunk not yet written. It is only ever
// read: a probe into it misses, and fill materializes a chunk of its
// own before writing a line.
var zeroChunk [chunkLines]uint64

// cache is one level of direct-mapped cache, with the line array
// materialized lazily in chunkLines-sized chunks. Sizes are powers of
// two (config.Validate), so the line index is a mask of the tag.
type cache struct {
	chunks    []*[chunkLines]uint64
	lineShift uint
	indexMask uint64
}

func newCache(sizeBytes, lineBytes int) *cache {
	n := sizeBytes / lineBytes
	if n == 0 {
		n = 1
	}
	c := &cache{
		chunks:    make([]*[chunkLines]uint64, (n+chunkLines-1)/chunkLines),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
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
// victim's tag and whether that victim was dirty. dirty is false when
// the slot was empty or already held addr.
func (c *cache) fill(addr uint64, store bool) (victimTag uint64, dirty bool) {
	tag := addr >> c.lineShift
	idx := tag & c.indexMask
	ch := c.chunks[idx/chunkLines]
	if ch == &zeroChunk {
		ch = new([chunkLines]uint64)
		c.chunks[idx/chunkLines] = ch
	}
	l := &ch[idx%chunkLines]
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
	cfg   *config.Config
	l1    *cache
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
	return &Hierarchy{
		cfg:           cfg,
		l1:            newCache(cfg.L1Bytes, cfg.CacheLineBytes),
		l2:            newCache(cfg.L2Bytes, cfg.CacheLineBytes),
		lineBytes:     cfg.CacheLineBytes,
		missToL2:      cfg.L2AccessCycles,
		missToMemory:  cfg.MemoryLatencyCycles + cfg.BusToCPU(lineBus),
		writeBackCost: cfg.BusToCPU(lineBus),
	}
}

// LineBytes reports the cache line size.
func (h *Hierarchy) LineBytes() int { return h.lineBytes }

// Read charges one load from addr and returns its cost in CPU cycles.
func (h *Hierarchy) Read(addr uint64) sim.Time {
	h.Stats.Reads++
	return h.access(addr, false)
}

// Write charges one store to addr (write-allocate, write-back) and
// returns its cost in CPU cycles.
func (h *Hierarchy) Write(addr uint64) sim.Time {
	h.Stats.Writes++
	h.stored = true
	return h.access(addr, true)
}

func (h *Hierarchy) access(addr uint64, store bool) sim.Time {
	cost := h.cfg.L1AccessCycles
	l1, hit1 := h.l1.probe(addr)
	if hit1 {
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
	// Install in L1; a store dirties only the L1 copy (write-back), and
	// the dirt trickles down on eviction or flush. A dirty L1 victim is
	// written down into L2; if the victim is no longer resident in L2
	// (non-inclusive hierarchy), it goes all the way to memory.
	if victimTag, dirty := h.l1.fill(addr, store); dirty {
		vaddr := victimTag << h.l1.lineShift
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
		lines := (addr + uint64(n) - start + uint64(h.lineBytes-1)) >> h.l1.lineShift
		return sim.Time(lines) * h.cfg.L1AccessCycles, 0
	}
	for a := start; a < addr+uint64(n); a += uint64(h.lineBytes) {
		dirty := false
		if l, ok := h.l1.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		if l, ok := h.l2.probe(a); ok && *l&lineDirty != 0 {
			*l &^= lineDirty
			dirty = true
		}
		cost += h.cfg.L1AccessCycles // probe cost even when clean
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
		if l, ok := h.l1.probe(a); ok {
			*l = 0
			h.Stats.Invalidates++
		}
		if l, ok := h.l2.probe(a); ok {
			*l = 0
			h.Stats.Invalidates++
		}
		cost += h.cfg.L1AccessCycles
	}
	return cost
}
