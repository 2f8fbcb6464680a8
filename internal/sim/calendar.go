package sim

import "math/bits"

// This file implements the default scheduler engine: a calendar queue
// (bucketed event scheduling) with an overflow ladder.
//
// The dominant inter-event gaps in this simulator are short and
// clustered: the 150 ns link-propagation delta is 25 CPU cycles at the
// paper's 166 MHz, head-cell pipelining offsets are ~114 cycles, and
// per-message serialization times a few thousand. Bucket width is
// therefore 2^5 = 32 cycles — the propagation delta rounded up to a
// power of two — and the calendar spans calBuckets of them, a window of
// 32768 cycles (~13 max-size-PDU serialization times). Events inside
// the window go to the bucket covering their timestamp; events beyond
// it (retransmit timers, far-future application timers) go to the
// overflow ladder, a plain binary min-heap, and migrate into buckets
// when the window advances past its old end. An occupancy bitmap over
// the buckets makes "find the next non-empty bucket" a
// TrailingZeros64 scan, so sparse schedules do not pay a linear walk.
//
// Ordering contract: pops come out in exactly (at, seq) lexicographic
// order — identical to the reference heap engine, which is what keeps
// artifact output bit-identical across the engine swap. Within the
// window only the bucket currently being drained needs internal order,
// so buckets stay unsorted until the cursor reaches them, then get
// heapified once (curIdx); re-entrant insertions into that live bucket
// sift into its heap, insertions into later buckets just append.
// Events are stored by value in bucket slices whose backing arrays are
// reused for the life of the kernel — scheduling allocates nothing in
// steady state (the free-list/pool of the classic recipe, realized as
// reusable slabs instead of linked records).

const (
	calLogWidth = 5 // 32-cycle buckets: NSToCycles(150ns) = 25, rounded up
	calWidth    = 1 << calLogWidth
	calBuckets  = 1024 // window = 32768 cycles
	calWindow   = calBuckets * calWidth
	calOccWords = calBuckets / 64
)

type calendarQueue struct {
	base   Time // window start, multiple of calWidth; invariant: base <= kernel now at API boundaries
	cursor int  // lowest possibly-occupied bucket index this window
	curIdx int  // bucket currently heapified and draining, -1 if none
	inWin  int  // events stored in buckets
	n      int  // total events (buckets + overflow)

	buckets  [calBuckets][]event
	occ      [calOccWords]uint64 // bit b set <=> buckets[b] non-empty
	overflow []event             // binary min-heap by (at, seq): at >= base+calWindow
}

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{curIdx: -1}
}

func (c *calendarQueue) len() int { return c.n }

// bucketFor maps an in-window timestamp to its bucket index.
func (c *calendarQueue) bucketFor(at Time) int {
	return int((at - c.base) >> calLogWidth)
}

func (c *calendarQueue) setOcc(i int) { c.occ[i>>6] |= 1 << (uint(i) & 63) }
func (c *calendarQueue) clrOcc(i int) { c.occ[i>>6] &^= 1 << (uint(i) & 63) }

// nextOcc returns the first occupied bucket index >= from, or -1.
func (c *calendarQueue) nextOcc(from int) int {
	w := from >> 6
	if w >= calOccWords {
		return -1
	}
	if rem := c.occ[w] >> (uint(from) & 63); rem != 0 {
		return from + bits.TrailingZeros64(rem)
	}
	for w++; w < calOccWords; w++ {
		if c.occ[w] != 0 {
			return w<<6 + bits.TrailingZeros64(c.occ[w])
		}
	}
	return -1
}

func (c *calendarQueue) push(e event) {
	c.n++
	if e.at-c.base < calWindow {
		idx := c.bucketFor(e.at)
		c.inWin++
		if idx == c.curIdx {
			// The bucket is live (heapified, being drained): keep its
			// heap order so the next pop still sees the exact minimum.
			heapUp(append(c.buckets[idx], e), &c.buckets[idx])
			return
		}
		c.buckets[idx] = append(c.buckets[idx], e)
		c.setOcc(idx)
		c.rewind(idx)
		return
	}
	heapUp(append(c.overflow, e), &c.overflow)
}

// rewind backs the cursor up when an insertion lands in a bucket the
// scan position has already passed. That happens when RunUntil stops
// short of the earliest pending event: peekAt settles the cursor (and
// possibly a heapified live bucket) on that event's bucket, the clock
// parks below it, and a subsequent push may legally target any bucket
// from the clock's onward. Without the rewind the occupancy scan would
// never look back — events would run out of order, and the
// inWin/occupancy bookkeeping would strand settle on an empty scan.
// The abandoned live bucket keeps its (valid) heap prefix plus any
// appended tail; settle re-heapifies it when the cursor returns.
func (c *calendarQueue) rewind(idx int) {
	if idx < c.cursor {
		c.cursor = idx
		c.curIdx = -1
	}
}

// rebase slides the window forward when every bucketed event has been
// consumed: the new window starts at the overflow minimum's bucket
// boundary, and every overflow event now inside it migrates to its
// bucket. Caller guarantees inWin == 0 and len(overflow) > 0.
func (c *calendarQueue) rebase() {
	c.base = c.overflow[0].at &^ (calWidth - 1)
	c.cursor = 0
	c.curIdx = -1
	for len(c.overflow) > 0 && c.overflow[0].at-c.base < calWindow {
		e := heapPop(&c.overflow)
		idx := c.bucketFor(e.at)
		c.buckets[idx] = append(c.buckets[idx], e)
		c.setOcc(idx)
		c.inWin++
	}
}

// settle positions curIdx on the bucket holding the earliest event,
// heapifying it if the cursor just arrived, and returns false when the
// queue is empty. After settle returns true, the minimum event is
// buckets[curIdx][0] (or, if inWin is somehow 0, never: rebase filled
// the window).
func (c *calendarQueue) settle() bool {
	if c.n == 0 {
		return false
	}
	if c.inWin == 0 {
		c.rebase()
	}
	if c.curIdx >= 0 {
		return true
	}
	idx := c.nextOcc(c.cursor)
	c.cursor = idx
	c.curIdx = idx
	heapify(c.buckets[idx])
	return true
}

func (c *calendarQueue) pop() (event, bool) {
	if !c.settle() {
		return event{}, false
	}
	b := c.buckets[c.curIdx]
	e := heapPop(&b)
	c.buckets[c.curIdx] = b
	if len(b) == 0 {
		c.clrOcc(c.curIdx)
		// Stay on this bucket index: the event about to run may
		// schedule back into it (ties at now), re-entering via push's
		// curIdx path — but it is no longer heap-draining, so reset.
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
		// Everything pending lives in the overflow ladder. Do not
		// rebase here: RunUntil may stop short of these events, and the
		// window must never advance past the kernel clock.
		return c.overflow[0].at, true
	}
	c.settle()
	return c.buckets[c.curIdx][0].at, true
}

func (c *calendarQueue) clear() {
	for i := range c.buckets {
		c.buckets[i] = nil
	}
	c.occ = [calOccWords]uint64{}
	c.overflow = nil
	c.base = 0
	c.cursor = 0
	c.curIdx = -1
	c.inWin = 0
	c.n = 0
}

// --- value-typed binary min-heap by (at, seq), shared by the bucket
// being drained and the overflow ladder ---

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
