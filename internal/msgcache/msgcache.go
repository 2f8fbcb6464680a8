// Package msgcache implements the Message Cache of the CNI paper
// (Section 2.2): a set of page-sized buffers in the network adaptor
// board's memory kept consistent with host memory, so that
//
//   - a transmit of a buffer that is already resident skips the
//     host-to-board DMA (transmit caching),
//   - an arriving DSM page can be bound to its board buffer so a later
//     migration to another node skips the DMA too (receive caching), and
//   - CPU writes observed on the memory bus update the board copy in
//     place (consistency snooping) instead of invalidating it.
//
// Buffers are managed in approximate LRU order (a clock sweep, which is
// what "approximate LRU" meant in period hardware) and the buffer map
// binds host virtual pages to buffer frames. A TLB/RTLB pair translates
// between host virtual and physical pages: the TLB serves virtually
// addressed DMA, and the RTLB turns the physical addresses seen on the
// snooped bus back into virtual pages for the buffer-map probe.
//
// The package tracks bindings and statistics only; page *contents* live
// in the DSM layer (the simulation ships current contents regardless,
// so storing bytes here would add memory without adding fidelity).
package msgcache

import (
	"errors"
	"fmt"
	"slices"
)

// Stats counts Message Cache activity. The paper's "network cache hit
// ratio" is TxHits / (TxHits + TxMisses).
type Stats struct {
	TxHits       uint64 // transmits served from a bound buffer
	TxMisses     uint64 // transmits that needed a host-to-board DMA
	TxBindings   uint64 // bindings created on the transmit path
	RxBindings   uint64 // bindings created by receive caching
	SnoopUpdates uint64 // CPU writes folded into a bound buffer
	SnoopAborts  uint64 // snooped writes with no bound buffer
	SnoopInvals  uint64 // writes that invalidated a binding (snooping off)
	Evictions    uint64 // bindings evicted by the clock sweep
	Invalidates  uint64 // explicit invalidations
	Pins         uint64 // retention pins taken on bound frames
}

// HitRatio returns the network cache hit ratio in percent, or 0 when
// nothing was transmitted.
func (s *Stats) HitRatio() float64 {
	total := s.TxHits + s.TxMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.TxHits) / float64(total)
}

// frame is one page-sized board buffer.
type frame struct {
	vpage  uint64
	valid  bool
	ref    bool // clock reference bit
	pinned int  // retention count: >0 exempts the frame from the sweep
}

// Cache is one board's Message Cache.
type Cache struct {
	pageBytes int
	frames    []frame
	byVPage   map[uint64]int // vpage -> frame index
	hand      int            // clock hand
	snooping  bool

	// runs is the TLB and the RTLB in one: the translations as runs of
	// consecutive pages, sorted by virtual page, disjoint, and with no
	// neighbour that continues another in both spaces.
	runs []run

	Stats Stats
}

// run maps virtual pages [v, v+n) onto physical pages [p, p+n).
type run struct{ v, p, n uint64 }

// New returns a Message Cache of sizeBytes bytes of board memory cut
// into pageBytes buffers (the paper fixes the buffer size to the host
// page size). snooping selects consistency snooping (true, the CNI
// design) versus invalidate-on-write (false, used for ablation).
func New(sizeBytes, pageBytes int, snooping bool) *Cache {
	if pageBytes <= 0 {
		panic("msgcache: non-positive page size")
	}
	n := sizeBytes / pageBytes
	// byVPage is deliberately not pre-sized to the frame count: it
	// grows with the pages actually bound, and boards in large fabric
	// sweeps bind a handful of pages out of a thousand frames.
	return &Cache{
		pageBytes: pageBytes,
		frames:    make([]frame, n),
		byVPage:   make(map[uint64]int),
		snooping:  snooping,
	}
}

// Frames reports the number of page buffers.
func (c *Cache) Frames() int { return len(c.frames) }

// vpageOf truncates a virtual address to its page number.
func (c *Cache) vpageOf(vaddr uint64) uint64 { return vaddr / uint64(c.pageBytes) }

// --- TLB / RTLB ---

// ErrNoMapping is returned by translations with no installed entry.
var ErrNoMapping = errors.New("msgcache: no translation")

// MapPage installs the virtual-to-physical translation for one page in
// both the TLB and the RTLB (the OS does this when it pins a buffer
// for the board).
func (c *Cache) MapPage(vpage, ppage uint64) { c.MapPages(vpage, ppage, 1) }

// MapPages installs the translations of n consecutive pages, vpage+i
// to ppage+i, as one run, merged with a neighbour that it continues in
// both spaces. Pages of the range that already translate get the new
// translation, so a remapped page loses its old reverse translation.
// Mapping two virtual pages onto one physical page is outside the
// contract, as no caller does it; P2V then answers with one of them.
func (c *Cache) MapPages(vpage, ppage uint64, n int) {
	if n <= 0 {
		return
	}
	r := run{vpage, ppage, uint64(n)}
	i := c.unmap(vpage, vpage+r.n)
	left := i > 0 && continues(c.runs[i-1], r)
	right := i < len(c.runs) && continues(r, c.runs[i])
	switch {
	case left && right:
		c.runs[i-1].n += r.n + c.runs[i].n
		c.runs = slices.Delete(c.runs, i, i+1)
	case left:
		c.runs[i-1].n += r.n
	case right:
		c.runs[i] = run{r.v, r.p, r.n + c.runs[i].n}
	default:
		c.runs = slices.Insert(c.runs, i, r)
	}
}

// continues reports whether b starts where a ends, in both spaces.
func continues(a, b run) bool { return a.v+a.n == b.v && a.p+a.n == b.p }

// UnmapPage removes the translation for vpage.
func (c *Cache) UnmapPage(vpage uint64) { c.unmap(vpage, vpage+1) }

// unmap cuts virtual pages [lo, hi) out of the runs, keeping the parts
// of the runs it overlaps that lie outside it, and returns the index
// at which a run starting at lo belongs.
func (c *Cache) unmap(lo, hi uint64) int {
	i := 0
	for i < len(c.runs) && c.runs[i].v+c.runs[i].n <= lo {
		i++
	}
	j := i
	for j < len(c.runs) && c.runs[j].v < hi {
		j++
	}
	if i == j {
		return i
	}
	head, tail := c.runs[i], c.runs[j-1]
	var keep [2]run
	k := 0
	if head.v < lo {
		keep[k] = run{head.v, head.p, lo - head.v}
		k++
	}
	if end := tail.v + tail.n; end > hi {
		keep[k] = run{hi, tail.p + hi - tail.v, end - hi}
		k++
	}
	c.runs = slices.Replace(c.runs, i, j, keep[:k]...)
	if head.v < lo {
		return i + 1
	}
	return i
}

// V2P translates a virtual page to a physical page (virtually
// addressed DMA path).
func (c *Cache) V2P(vpage uint64) (uint64, error) {
	for _, r := range c.runs {
		if vpage >= r.v && vpage < r.v+r.n {
			return r.p + vpage - r.v, nil
		}
	}
	return 0, fmt.Errorf("%w: vpage %#x", ErrNoMapping, vpage)
}

// P2V translates a physical page back to the virtual page.
func (c *Cache) P2V(ppage uint64) (uint64, error) {
	if vpage, ok := c.p2v(ppage); ok {
		return vpage, nil
	}
	return 0, fmt.Errorf("%w: ppage %#x", ErrNoMapping, ppage)
}

// p2v is P2V without an error to build on a miss: the snoop path's
// lookup.
func (c *Cache) p2v(ppage uint64) (uint64, bool) {
	for _, r := range c.runs {
		if ppage >= r.p && ppage < r.p+r.n {
			return r.v + ppage - r.p, true
		}
	}
	return 0, false
}

// --- Buffer map operations ---

// LookupTransmit is step 1 of the paper's transmit path: is there a
// valid board buffer for the host buffer at vaddr? A hit touches the
// frame's reference bit.
func (c *Cache) LookupTransmit(vaddr uint64) bool {
	if len(c.frames) == 0 {
		c.Stats.TxMisses++
		return false
	}
	if i, ok := c.byVPage[c.vpageOf(vaddr)]; ok && c.frames[i].valid {
		c.frames[i].ref = true
		c.Stats.TxHits++
		return true
	}
	c.Stats.TxMisses++
	return false
}

// BindTransmit creates a binding after the transmit-path DMA for a
// message whose header had the cache bit set (step 3).
func (c *Cache) BindTransmit(vaddr uint64) {
	if c.bind(c.vpageOf(vaddr)) {
		c.Stats.TxBindings++
	}
}

// BindReceive creates a binding for an arriving page whose header had
// the cache bit set (receive caching, step 2 of the receive path).
func (c *Cache) BindReceive(vaddr uint64) {
	if c.bind(c.vpageOf(vaddr)) {
		c.Stats.RxBindings++
	}
}

// bind installs vpage in a frame, evicting the clock victim if needed.
// It reports whether a new binding was created. With every frame pinned
// there is no victim and the binding silently fails — the board falls
// back to DMA, it never evicts retained data.
func (c *Cache) bind(vpage uint64) bool {
	if len(c.frames) == 0 {
		return false
	}
	if i, ok := c.byVPage[vpage]; ok {
		c.frames[i].valid = true
		c.frames[i].ref = true
		return false
	}
	i := c.victim()
	if i < 0 {
		return false
	}
	f := &c.frames[i]
	if f.valid {
		delete(c.byVPage, f.vpage)
		c.Stats.Evictions++
	}
	f.vpage = vpage
	f.valid = true
	f.ref = true
	c.byVPage[vpage] = i
	return true
}

// victim runs the clock sweep: advance the hand past pinned frames and
// past frames with the reference bit set (clearing it), return the
// first unpinned frame without it. Invalid frames are taken
// immediately. Two turns of the hand suffice: the first clears the
// reference bit of every unpinned frame, so the second takes one.
// Returns -1 when every frame is pinned.
func (c *Cache) victim() int {
	for sweep := 0; sweep < 2*len(c.frames); sweep++ {
		f := &c.frames[c.hand]
		i := c.hand
		c.hand = (c.hand + 1) % len(c.frames)
		if f.pinned > 0 {
			continue
		}
		if !f.valid {
			return i
		}
		if f.ref {
			f.ref = false
			continue
		}
		return i
	}
	return -1
}

// SnoopWrite is the consistency-snooping path: the board observed a CPU
// write to physical address paddr on the memory bus. With snooping on,
// a bound buffer absorbs the write and stays valid; with snooping off
// (ablation), the binding is invalidated so stale data is never
// transmitted. It reports whether a bound buffer was affected.
func (c *Cache) SnoopWrite(paddr uint64) bool {
	vpage, ok := c.p2v(paddr / uint64(c.pageBytes))
	if !ok {
		c.Stats.SnoopAborts++
		return false
	}
	i, ok := c.byVPage[vpage]
	if !ok || !c.frames[i].valid {
		c.Stats.SnoopAborts++
		return false
	}
	if c.snooping {
		c.Stats.SnoopUpdates++
		return true
	}
	c.invalidateFrame(i)
	c.Stats.SnoopInvals++
	return true
}

// Invalidate drops the binding for the page containing vaddr, if any.
func (c *Cache) Invalidate(vaddr uint64) bool {
	i, ok := c.byVPage[c.vpageOf(vaddr)]
	if !ok {
		return false
	}
	c.invalidateFrame(i)
	c.Stats.Invalidates++
	return true
}

func (c *Cache) invalidateFrame(i int) {
	delete(c.byVPage, c.frames[i].vpage)
	c.frames[i].valid = false
	c.frames[i].ref = false
	c.frames[i].pinned = 0
}

// Pin exempts the frame bound to the page containing vaddr from the
// clock sweep (retransmission retention: the board may still have to
// resend this buffer, so the sweep must not evict it). Pins nest.
// Reports whether a bound frame was pinned.
func (c *Cache) Pin(vaddr uint64) bool {
	i, ok := c.byVPage[c.vpageOf(vaddr)]
	if !ok || !c.frames[i].valid {
		return false
	}
	c.frames[i].pinned++
	c.Stats.Pins++
	return true
}

// Unpin releases one Pin on the page containing vaddr. Reports whether
// a pinned frame was released. Unpinning a page whose binding was
// meanwhile invalidated is a harmless no-op.
func (c *Cache) Unpin(vaddr uint64) bool {
	i, ok := c.byVPage[c.vpageOf(vaddr)]
	if !ok || c.frames[i].pinned == 0 {
		return false
	}
	c.frames[i].pinned--
	return true
}

// Pinned reports whether the page containing vaddr is bound and pinned.
func (c *Cache) Pinned(vaddr uint64) bool {
	i, ok := c.byVPage[c.vpageOf(vaddr)]
	return ok && c.frames[i].pinned > 0
}

// Resident reports whether the page containing vaddr is bound, without
// touching reference bits or statistics.
func (c *Cache) Resident(vaddr uint64) bool {
	i, ok := c.byVPage[c.vpageOf(vaddr)]
	return ok && c.frames[i].valid
}

// Residents reports the number of valid bindings.
func (c *Cache) Residents() int { return len(c.byVPage) }
