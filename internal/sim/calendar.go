package sim

import "math/bits"

// This file implements the default scheduler engine: a two-tier
// calendar queue (bucketed event scheduling).
//
// The dominant inter-event gaps in this simulator are short and
// clustered: the 150 ns link-propagation delta is 25 CPU cycles at the
// paper's 166 MHz, head-cell pipelining offsets are ~114 cycles, and
// per-message serialization times a few thousand. Bucket width is
// therefore 2^5 = 32 cycles — the propagation delta rounded up to a
// power of two — and the calendar spans calBuckets of them, a window of
// 32768 cycles (~13 max-size-PDU serialization times). The window start
// (base) is a multiple of the window width, and an event goes to one of
// three places:
//
//   - inside the current window: the bucket covering its timestamp;
//   - 1 to calSlots-1 windows ahead: the coarse slot of its window
//     (window number mod calSlots), an unordered slab whose earliest
//     timestamp is kept beside it;
//   - further ahead (more than 2^25 cycles, ~0.2 s simulated): the far
//     heap, a binary min-heap.
//
// When every bucketed event has run, the window moves to the nearest
// occupied slot (or, with the ring empty, to the far heap's minimum):
// that slot's events are appended to their buckets in O(1) each, and
// far-heap events that now fall inside the ring move to their slots.
// Occupancy bitmaps over the buckets and over the slots make "find the
// next non-empty one" a TrailingZeros64 scan, so sparse schedules do
// not pay a linear walk.
//
// Ordering contract: pops come out in exactly (at, seq) lexicographic
// order — identical to the reference heap engine, which is what keeps
// artifact output bit-identical across the engine swap. Only the bucket
// the cursor is draining needs internal order, so buckets stay
// unordered until the cursor reaches them. On arrival one pass checks
// whether the bucket is already in (at, seq) order — it usually is,
// because events mostly arrive in scheduling order with non-decreasing
// timestamps — and if so it drains by index, as a FIFO; otherwise it is
// heapified once. A re-entrant push into a FIFO bucket appends when it
// sorts after the bucket's last event (its seq is the largest yet, so
// only an earlier timestamp sorts before); otherwise the bucket drops
// its consumed prefix, is heapified, and drains as a heap from then on.
// Insertions into later buckets just append.
//
// Events are stored by value in slabs whose backing arrays are reused
// for the life of the kernel — buckets keep theirs, and a drained
// slot's slab goes onto a spare list that the next slot to fill takes
// from — so scheduling allocates nothing in steady state (the
// free-list/pool of the classic recipe, realized as reusable slabs
// instead of linked records).

const (
	calLogWidth   = 5 // 32-cycle buckets: NSToCycles(150ns) = 25, rounded up
	calLogBuckets = 10
	calBuckets    = 1 << calLogBuckets
	calLogWindow  = calLogWidth + calLogBuckets // window = 32768 cycles
	calWindow     = 1 << calLogWindow
	calSlots      = 1024 // coarse ring: the windows 1..calSlots-1 past base
)

type calendarQueue struct {
	base   Time // window start, multiple of calWindow; invariant: base <= kernel now at API boundaries
	cursor int  // lowest possibly-occupied bucket index this window
	curIdx int  // bucket the cursor has settled on and drains, -1 if none
	head   int  // next event of buckets[curIdx] while it drains as a FIFO; 0 as a heap
	fifo   bool // buckets[curIdx] is in (at, seq) order and drains by index
	inWin  int  // events stored in buckets
	n      int  // total events (all tiers)

	buckets [calBuckets][]event
	occ     occBits // bit b set <=> buckets[b] non-empty

	slots   [calSlots][]event // slots[w mod calSlots]: the events of window w, unordered
	slotMin [calSlots]Time    // earliest timestamp in each non-empty slot
	slotOcc occBits           // bit s set <=> slots[s] non-empty
	spare   [][]event         // emptied slot slabs, for the next slot to fill

	far []event // binary min-heap by (at, seq): calSlots or more windows past base
}

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{curIdx: -1}
}

func (c *calendarQueue) len() int { return c.n }

// occBits is an occupancy bitmap over the 1024 buckets or slots.
type occBits [calBuckets / 64]uint64

func (o *occBits) set(i int) { o[i>>6] |= 1 << (uint(i) & 63) }
func (o *occBits) clr(i int) { o[i>>6] &^= 1 << (uint(i) & 63) }

// next returns the first set index >= from, or -1; from < 1024.
func (o *occBits) next(from int) int {
	w := from >> 6
	if rem := o[w] >> (uint(from) & 63); rem != 0 {
		return from + bits.TrailingZeros64(rem)
	}
	for w++; w < len(o); w++ {
		if o[w] != 0 {
			return w<<6 + bits.TrailingZeros64(o[w])
		}
	}
	return -1
}

func (c *calendarQueue) push(e event) {
	c.n++
	c.place(e)
}

// place stores e in the tier its distance from base selects.
func (c *calendarQueue) place(e event) {
	switch ahead := (e.at - c.base) >> calLogWindow; {
	case ahead == 0:
		c.pushBucket(e)
	case ahead < calSlots:
		c.pushSlot(e)
	default:
		heapUp(append(c.far, e), &c.far)
	}
}

func (c *calendarQueue) pushBucket(e event) {
	idx := int((e.at - c.base) >> calLogWidth)
	c.inWin++
	b := c.buckets[idx]
	if idx != c.curIdx {
		c.buckets[idx] = append(b, e)
		c.occ.set(idx)
		c.rewind(idx)
		return
	}
	// The bucket is live (being drained): keep it drainable in exact
	// order.
	if c.fifo {
		if e.at >= b[len(b)-1].at {
			c.buckets[idx] = append(b, e)
			return
		}
		n := copy(b, b[c.head:])
		clear(b[n:])
		b = b[:n]
		heapify(b)
		c.head, c.fifo = 0, false
	}
	heapUp(append(b, e), &c.buckets[idx])
}

func (c *calendarQueue) pushSlot(e event) {
	s := int(e.at>>calLogWindow) & (calSlots - 1)
	if len(c.slots[s]) == 0 {
		if k := len(c.spare); k > 0 {
			c.slots[s] = c.spare[k-1]
			c.spare = c.spare[:k-1]
		}
		c.slotMin[s] = e.at
		c.slotOcc.set(s)
	} else if e.at < c.slotMin[s] {
		c.slotMin[s] = e.at
	}
	c.slots[s] = append(c.slots[s], e)
}

// rewind backs the cursor up when an insertion lands in a bucket the
// scan position has already passed. That happens when RunUntil stops
// short of the earliest pending event: peekAt settles the cursor on
// that event's bucket, the clock parks below it, and a subsequent push
// may legally target any bucket from the clock's onward. Without the
// rewind the occupancy scan would never look back — events would run
// out of order, and the inWin/occupancy bookkeeping would strand settle
// on an empty scan. It can fire only while nothing has been popped from
// the settled bucket: a pop moves the clock into that bucket, and every
// later push lands in it or after it. So the abandoned bucket still
// holds all its events, none consumed — a FIFO at head 0, or a heap
// after a fallback — and needs no prefix handling; settle checks its
// order again when the cursor returns.
func (c *calendarQueue) rewind(idx int) {
	if idx < c.cursor {
		c.cursor = idx
		c.curIdx = -1
	}
}

// nearestSlot returns the occupied slot holding the earliest window, or
// -1. The ring holds the windows after base's in slot order from
// base's slot + 1, wrapping; base's own slot is always empty.
func (c *calendarQueue) nearestSlot() int {
	if s := c.slotOcc.next(int(c.base>>calLogWindow+1) & (calSlots - 1)); s >= 0 {
		return s
	}
	return c.slotOcc.next(0)
}

// advance moves the window forward once every bucketed event has run:
// base jumps to the window of the earliest pending event — the nearest
// occupied slot's, or with the ring empty the far heap minimum's — that
// slot's events go to their buckets and its slab to the spare list, and
// far-heap events that now fall inside the ring move to their slots.
// Caller guarantees inWin == 0 and n > 0.
func (c *calendarQueue) advance() {
	c.cursor = 0
	c.curIdx = -1
	if s := c.nearestSlot(); s >= 0 {
		c.base = c.slotMin[s] &^ (calWindow - 1)
		slab := c.slots[s]
		for i := range slab {
			c.pushBucket(slab[i])
		}
		clear(slab)
		c.spare = append(c.spare, slab[:0])
		c.slots[s] = nil
		c.slotOcc.clr(s)
	} else {
		c.base = c.far[0].at &^ (calWindow - 1)
	}
	for len(c.far) > 0 && (c.far[0].at-c.base)>>calLogWindow < calSlots {
		c.place(heapPop(&c.far))
	}
}

// settle positions curIdx on the bucket holding the earliest event,
// choosing its drain order if the cursor just arrived, and returns
// false when the queue is empty. After settle returns true, the minimum
// event is buckets[curIdx][head].
func (c *calendarQueue) settle() bool {
	if c.n == 0 {
		return false
	}
	if c.inWin == 0 {
		c.advance()
	}
	if c.curIdx >= 0 {
		return true
	}
	idx := c.occ.next(c.cursor)
	c.cursor, c.curIdx, c.head = idx, idx, 0
	b := c.buckets[idx]
	c.fifo = inOrder(b)
	if !c.fifo {
		heapify(b)
	}
	return true
}

func (c *calendarQueue) pop() (event, bool) {
	if !c.settle() {
		return event{}, false
	}
	b := c.buckets[c.curIdx]
	var e event
	if c.fifo {
		e = b[c.head]
		b[c.head] = event{}
		c.head++
		if c.head == len(b) {
			b = b[:0]
		}
	} else {
		e = heapPop(&b)
	}
	c.buckets[c.curIdx] = b
	if len(b) == 0 {
		c.occ.clr(c.curIdx)
		// Stay on this bucket index: the event about to run may
		// schedule back into it (ties at now), re-entering via
		// pushBucket — but it is no longer draining, so reset.
		c.curIdx = -1
	}
	c.inWin--
	c.n--
	return e, true
}

func (c *calendarQueue) peekAt() (Time, bool) {
	if c.n == 0 {
		return 0, false
	}
	if c.inWin == 0 {
		// Everything pending lies past the window. Do not advance here:
		// RunUntil and the shard barrier may stop short of these events
		// and then schedule behind them, so the window must never move
		// past the kernel clock.
		if s := c.nearestSlot(); s >= 0 {
			return c.slotMin[s], true
		}
		return c.far[0].at, true
	}
	c.settle()
	return c.buckets[c.curIdx][c.head].at, true
}

func (c *calendarQueue) clear() { *c = calendarQueue{curIdx: -1} }

// inOrder reports whether b is sorted by (at, seq), so it can drain by
// index.
func inOrder(b []event) bool {
	for i := 1; i < len(b); i++ {
		if b[i].before(&b[i-1]) {
			return false
		}
	}
	return true
}

// --- value-typed binary min-heap by (at, seq), shared by a bucket
// draining as a heap and the far heap ---

// heapify establishes the heap invariant over h in place.
func heapify(h []event) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// heapUp takes the slice with the new element already appended at the
// end, sifts it up, and stores the result.
func heapUp(h []event, dst *[]event) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*dst = h
}

// heapPop removes and returns the minimum, zeroing the vacated slot so
// the executed closure is not retained by the backing array.
func heapPop(h *[]event) event {
	s := *h
	e := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{}
	s = s[:last]
	siftDown(s, 0)
	*h = s
	return e
}

func siftDown(h []event, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			min = r
		}
		if !h[min].before(&h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
