package sim

import "container/heap"

// This file is the seed's binary-heap scheduler, preserved verbatim in
// structure as EngineHeap: the reference kernel ("refKernel") that the
// differential property test and FuzzKernelSchedule replay every
// schedule against. It deliberately keeps the original boxed-event,
// container/heap implementation — slower, but independently simple —
// so a bug in the calendar engine cannot hide in shared code.

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// heapQueue adapts eventHeap to the scheduler interface.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(e event) {
	boxed := e
	heap.Push(&q.h, &boxed)
}

func (q *heapQueue) popUntil(h Time) (event, bool) {
	if len(q.h) == 0 || q.h[0].at > h {
		return event{}, false
	}
	return *heap.Pop(&q.h).(*event), true
}

func (q *heapQueue) peekAt() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) clear() { q.h = nil }
