package sim

// Resource models a FIFO-served exclusive resource with deterministic
// queuing delay: a memory bus, a DMA engine, a NIC processor, a network
// link. A request arriving at time at is served as soon as the resource
// is free, occupying it for dur cycles. The zero Resource is idle.
type Resource struct {
	freeAt Time

	// Busy accumulates cycles the resource spent serving requests, and
	// Waited accumulates cycles requests spent queued, for utilization
	// statistics.
	Busy   Time
	Waited Time
	Uses   uint64
}

// Use reserves the resource for dur cycles for a request arriving at
// time at, and returns the service start and completion times.
func (r *Resource) Use(at, dur Time) (start, end Time) {
	if dur < 0 {
		panic("sim: negative resource occupancy")
	}
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.Busy += dur
	r.Waited += start - at
	r.Uses++
	return start, end
}

// WaitQueue is a FIFO of blocked processes, used to build locks,
// condition variables and barriers in the protocol models. It dequeues
// from a moving head instead of shifting the slice, so Pop is O(1) and
// a drained queue's backing array is reused by later Pushes.
type WaitQueue struct {
	procs []*Proc
	head  int
}

// Push appends p to the queue.
func (q *WaitQueue) Push(p *Proc) {
	if q.head == len(q.procs) && q.head > 0 {
		// Fully drained: rewind so the backing array is reused.
		q.procs = q.procs[:0]
		q.head = 0
	}
	q.procs = append(q.procs, p)
}

// Pop removes and returns the process at the head, or nil if empty.
func (q *WaitQueue) Pop() *Proc {
	if q.head == len(q.procs) {
		return nil
	}
	p := q.procs[q.head]
	q.procs[q.head] = nil
	q.head++
	return p
}

// Len reports the number of queued processes.
func (q *WaitQueue) Len() int { return len(q.procs) - q.head }
