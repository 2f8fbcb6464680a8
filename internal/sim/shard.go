// Conservative-parallel sharded execution: a ShardSet runs N kernels
// over lock-stepped time windows of width equal to the model's
// lookahead (for the ATM fabric, the minimum single-hop delivery
// delay). Within a window the shards run concurrently and must not
// touch each other's state; everything that crosses shards is deferred
// by the model into a ledger and applied single-threaded at the window
// barrier, in a canonical order that does not depend on the shard
// count. That discipline — not anything in this file — is what keeps
// sharded runs bit-identical to the sequential kernel; this file only
// supplies the window loop, the barrier hook, and the worker pool.
package sim

import (
	"fmt"
	"runtime"
)

// ShardSet drives a fixed set of per-shard kernels through
// lock-stepped windows [T, T+lookahead): T is the earliest pending
// timestamp across all shards, every kernel executes its events up to
// the window edge in parallel, and the registered barrier runs
// single-threaded between windows.
type ShardSet struct {
	kernels   []*Kernel
	lookahead Time
	barrier   func()
	edge      Time // edge of the most recently executed window

	start  []chan Time
	done   chan struct{}
	panics []any
}

// goexited marks a window whose worker was ended by runtime.Goexit in a
// process body (what t.FailNow does).
type goexited struct{}

// NewShardSet returns n independent kernels (all at time zero, backed
// by engine) under one window driver.
func NewShardSet(n int, engine Engine) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard set of %d kernels", n))
	}
	ss := &ShardSet{kernels: make([]*Kernel, n), edge: -1}
	for i := range ss.kernels {
		ss.kernels[i] = NewKernelWith(engine)
	}
	return ss
}

// Shards reports the number of kernels in the set.
func (ss *ShardSet) Shards() int { return len(ss.kernels) }

// Kernel returns shard i's kernel. Model components belonging to a
// node schedule exclusively on their node's shard kernel.
func (ss *ShardSet) Kernel(i int) *Kernel { return ss.kernels[i] }

// SetLookahead fixes the window width: no event executed in a window
// starting at T may cause an event on another shard before T+w. The
// model layer (the fabric) computes w from its minimum cross-shard
// delivery delay and must panic if a delivery ever lands at or before
// a window edge.
func (ss *ShardSet) SetLookahead(w Time) {
	if w < 1 {
		panic(fmt.Sprintf("sim: shard lookahead %d", w))
	}
	ss.lookahead = w
}

// OnBarrier registers fn to run single-threaded before each window's
// horizon is computed (and once more after the last window): the
// model drains its cross-shard ledger here, scheduling deliveries on
// destination kernels.
func (ss *ShardSet) OnBarrier(fn func()) { ss.barrier = fn }

// WindowEdge reports the edge of the most recently executed window
// (-1 before the first). During a barrier every kernel's clock sits at
// this edge, and any delivery scheduled at or before it would execute
// out of causal order.
func (ss *ShardSet) WindowEdge() Time { return ss.edge }

// Run executes windows until every kernel is idle and the barrier
// produces no further work, then returns the final virtual time (the
// latest event timestamp executed on any shard, matching what
// Kernel.Run would have returned for the merged run).
func (ss *ShardSet) Run() Time {
	if ss.lookahead < 1 {
		panic("sim: ShardSet.Run before SetLookahead")
	}
	ss.startWorkers()
	defer ss.stopWorkers()
	for {
		if ss.barrier != nil {
			ss.barrier()
		}
		horizon, ok := ss.minPending()
		if !ok {
			break
		}
		ss.runWindow(horizon + ss.lookahead - 1)
	}
	return ss.Now()
}

// minPending reports the earliest pending timestamp across shards.
func (ss *ShardSet) minPending() (Time, bool) {
	var min Time
	found := false
	for _, k := range ss.kernels {
		if at, ok := k.q.peekAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// runWindow advances every kernel to edge in parallel. A model panic
// on any shard is re-raised here — after all workers have finished the
// window, and lowest shard first, so the surfaced failure does not
// depend on goroutine timing. A runtime.Goexit in a process body ends
// the caller's goroutine the same way.
func (ss *ShardSet) runWindow(edge Time) {
	for i := range ss.start {
		ss.panics[i] = nil
		ss.start[i] <- edge
	}
	for range ss.kernels {
		<-ss.done
	}
	ss.edge = edge
	for i, r := range ss.panics {
		switch r.(type) {
		case nil:
		case goexited:
			runtime.Goexit()
		default:
			panic(fmt.Sprintf("sim: shard %d: %v", i, r))
		}
	}
}

// startWorkers launches one persistent goroutine per shard. Each
// executes its kernel's windows, so every process coroutine of a shard
// is resumed from that shard's worker.
func (ss *ShardSet) startWorkers() {
	ss.start = make([]chan Time, len(ss.kernels))
	ss.done = make(chan struct{}, len(ss.kernels))
	ss.panics = make([]any, len(ss.kernels))
	for i := range ss.kernels {
		ss.start[i] = make(chan Time)
		go func(i int) {
			for edge := range ss.start[i] {
				func() {
					returned := false
					defer func() {
						if r := recover(); r != nil {
							ss.panics[i] = r
						} else if !returned {
							ss.panics[i] = goexited{}
						}
						ss.done <- struct{}{}
					}()
					ss.kernels[i].RunUntil(edge)
					returned = true
				}()
			}
		}(i)
	}
}

// stopWorkers retires the worker goroutines (they park on their start
// channels between windows, so without this each Run would leak one
// goroutine per shard).
func (ss *ShardSet) stopWorkers() {
	for _, c := range ss.start {
		close(c)
	}
	ss.start = nil
}

// Now reports the final virtual time: the latest event timestamp
// executed on any shard. (Kernel clocks themselves sit at the last
// window edge, which overshoots real activity.)
func (ss *ShardSet) Now() Time {
	var max Time
	for _, k := range ss.kernels {
		if k.LastEventAt() > max {
			max = k.LastEventAt()
		}
	}
	return max
}

// Executed reports the total number of events run across all shards.
func (ss *ShardSet) Executed() uint64 {
	var n uint64
	for _, k := range ss.kernels {
		n += k.Executed()
	}
	return n
}

// Pending reports the total number of queued events across all shards.
func (ss *ShardSet) Pending() int {
	n := 0
	for _, k := range ss.kernels {
		n += k.Pending()
	}
	return n
}

// Drain abandons all pending events on every shard and unwinds their
// parked processes; like Kernel.Drain it is synchronous and terminal.
func (ss *ShardSet) Drain() {
	for _, k := range ss.kernels {
		k.Drain()
	}
}
