// Conservative-parallel sharded execution: a ShardSet runs N kernels
// over lock-stepped time windows of width equal to the model's
// lookahead (for the ATM fabric, the minimum single-hop delivery
// delay). Within a window the shards run concurrently and must not
// touch each other's state; everything that crosses shards is deferred
// by the model into a ledger and applied single-threaded at the window
// barrier, in a canonical order that does not depend on the shard
// count. That discipline — not anything in this file — is what keeps
// sharded runs bit-identical to one shard; this file only supplies the
// window loop, the barrier hook, and the worker pool. One shard needs
// no pool: its kernel runs the same windows inline (Kernel.Run).
package sim

import (
	"fmt"
	"runtime"
)

// window is what a window driver, a Kernel or a ShardSet, runs its
// windows by: their width, and the model's barrier between them. It
// also counts the windows opened and the barriers run, which depend
// only on the simulated schedule, so they are the same on every run
// and at every shard count.
type window struct {
	lookahead Time
	barrier   func(edge Time)
	waiting   func() bool

	windows, barriers uint64
}

// Windows reports how many lookahead windows the driver has opened.
func (win *window) Windows() uint64 { return win.windows }

// Barriers reports how many times the driver has run the barrier.
func (win *window) Barriers() uint64 { return win.barriers }

// open counts a window starting at start and returns its edge, the
// last timestamp it covers.
func (win *window) open(start Time) Time {
	win.windows++
	return start + win.lookahead - 1
}

// runBarrier counts and runs the barrier after the window that ended
// at edge.
func (win *window) runBarrier(edge Time) {
	win.barriers++
	win.barrier(edge)
}

// SetLookahead fixes the window width: no event executed in a window
// starting at T may cause an event on another node before T+w. The
// model layer (the fabric) computes w from its minimum cross-node
// delivery delay and must panic if a delivery ever lands at or before
// a window edge.
func (win *window) SetLookahead(w Time) {
	if w < 1 {
		panic(fmt.Sprintf("sim: shard lookahead %d", w))
	}
	win.lookahead = w
}

// OnBarrier registers the window barrier. fn runs single-threaded
// between two windows, whenever waiting reports work, with edge the
// last timestamp the finished window covered (-1 before the first):
// the model drains its cross-node ledger there, scheduling deliveries
// after edge.
func (win *window) OnBarrier(fn func(edge Time), waiting func() bool) {
	win.barrier, win.waiting = fn, waiting
}

// ShardSet drives a fixed set of per-shard kernels through
// lock-stepped windows [T, T+lookahead): T is the earliest pending
// timestamp across all shards, every kernel executes its events up to
// the window edge in parallel, and the registered barrier runs
// single-threaded between windows. A set of one kernel is that
// kernel's own windows: its window settings are the kernel's, and Run
// runs the kernel.
type ShardSet struct {
	*window
	kernels []*Kernel
	edge    Time // edge of the most recently executed window

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
	ss := &ShardSet{kernels: make([]*Kernel, n), edge: -1, window: &window{}}
	for i := range ss.kernels {
		ss.kernels[i] = NewKernelWith(engine)
	}
	if n == 1 {
		ss.window = &ss.kernels[0].window
	}
	return ss
}

// Shards reports the number of kernels in the set.
func (ss *ShardSet) Shards() int { return len(ss.kernels) }

// Kernel returns shard i's kernel. Model components belonging to a
// node schedule exclusively on their node's shard kernel.
func (ss *ShardSet) Kernel(i int) *Kernel { return ss.kernels[i] }

// Run executes windows until every kernel is idle and the barrier
// produces no further work, then returns the final virtual time (the
// latest event timestamp executed on any shard, matching what
// Kernel.Run would have returned for the merged run).
func (ss *ShardSet) Run() Time {
	if len(ss.kernels) == 1 {
		return ss.kernels[0].Run()
	}
	if ss.lookahead < 1 {
		panic("sim: ShardSet.Run before SetLookahead")
	}
	ss.startWorkers()
	defer ss.stopWorkers()
	for {
		if ss.barrier != nil && ss.waiting() {
			ss.runBarrier(ss.edge)
		}
		start, ok := ss.minPending()
		if !ok {
			break
		}
		ss.runWindow(ss.open(start))
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
// is resumed from that shard's worker. A worker receives its start
// channel as an argument: when no window runs, stopWorkers may retire
// ss.start before the worker first looks.
func (ss *ShardSet) startWorkers() {
	ss.start = make([]chan Time, len(ss.kernels))
	ss.done = make(chan struct{}, len(ss.kernels))
	ss.panics = make([]any, len(ss.kernels))
	for i := range ss.kernels {
		ss.start[i] = make(chan Time)
		go func(i int, start <-chan Time) {
			for edge := range start {
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
		}(i, ss.start[i])
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
