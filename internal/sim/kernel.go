// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role the Proteus simulator plays in the
// CNI paper: application code runs natively as Go code on simulated
// processors and charges virtual cycles for computation, while all
// inter-processor interaction (messages, DMA, bus traffic, interrupts)
// flows through timestamped events.
//
// The kernel is strictly sequential: at any instant either the kernel or
// exactly one process is running, each process being a coroutine
// (iter.Pull) that the kernel resumes and that yields back. When a
// syncing process's own resume would be the very next event, the
// kernel runs that event in place instead (Kernel.runInPlace), so the
// process continues without a switch. Events with equal timestamps
// execute in scheduling order.
// Two runs of the same program therefore produce identical event orders,
// identical statistics, and identical virtual end times.
//
// A kernel with a barrier (OnBarrier) is a one-shard window driver: it
// runs the lock-stepped lookahead windows of a ShardSet (shard.go)
// inline, so a model that defers cross-node work to the barrier sees
// one order of events at every shard count.
//
// Two scheduler engines implement that contract. The default is a
// two-tier calendar queue (calendar.go): 40-byte events live by value
// in width-2^5-cycle buckets that drain as FIFOs when already in order,
// later windows wait in a coarse ring of window-wide slots, and only
// timers over 2^25 cycles ahead go to a heap, so the hot loop neither
// allocates nor chases heap pointers. Buckets and slots take their
// slabs from one pool of size classes and return them when they drain,
// so the queue's memory follows the events pending. The seed's binary
// heap survives as EngineHeap (refheap.go), the reference
// implementation the differential and fuzz tests replay every schedule
// against — the two engines must agree on the exact (time, seq)
// execution order, which is what keeps same-seed runs bit-identical
// across the engine swap.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time measured in host CPU cycles.
type Time = int64

// event is a scheduled activation, 40 bytes. seq breaks timestamp ties
// so that the execution order of simultaneous events is the order they
// were scheduled. The activation is always a call(arg) pair: AtCall's
// pre-bound function and argument, the allocation-free form hot paths
// use (see Kernel.AtCall), or for At the shared callFn with the closure
// as arg (a func value in an interface does not allocate). Events are
// stored by value inside the scheduler engines; only the reference heap
// engine boxes them.
type event struct {
	at   Time
	seq  uint64
	call func(any)
	arg  any
}

// run executes the event's activation.
func (e *event) run() { e.call(e.arg) }

// callFn is the call of every event scheduled with At: its arg is the
// closure.
func callFn(fn any) { fn.(func())() }

// before reports whether e executes before o: (at, seq) lexicographic
// order, the total order both engines must realize exactly.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// scheduler is a pending-event set ordered by (at, seq). The kernel
// owns time and sequence numbering; engines only store and order.
type scheduler interface {
	// push inserts one event.
	push(e event)
	// popUntil removes and returns the earliest event if its timestamp
	// is at most h, or ok=false when the queue is empty or its earliest
	// event lies past h.
	popUntil(h Time) (e event, ok bool)
	// peekAt reports the earliest pending timestamp without removing
	// the event, or ok=false when empty.
	peekAt() (at Time, ok bool)
	// len reports the number of pending events.
	len() int
	// clear discards all pending events (Kernel.Drain).
	clear()
}

// Engine selects the scheduler implementation backing a Kernel. Both
// engines realize the identical (time, seq) execution order; they
// differ only in speed.
type Engine string

const (
	// EngineCalendar is the default: a two-tier calendar queue of
	// buckets and window-wide slots, O(1) amortized and
	// allocation-free in steady state.
	EngineCalendar Engine = "calendar"
	// EngineHeap is the seed's container/heap binary heap, kept as the
	// reference implementation ("refKernel") that differential and
	// fuzz tests replay schedules against.
	EngineHeap Engine = "heap"
)

// Kernel is the simulation event loop. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	q       scheduler
	procs   []*Proc
	stopped bool
	drained bool
	// executed counts events run, for diagnostics and runaway detection.
	executed uint64
	// limit aborts the run when more than limit events execute (0 = none).
	limit uint64
	// lastAt is the timestamp of the most recently executed event. Run
	// leaves now there, but RunUntil advances now to the window edge, so
	// sharded drivers need the real end-of-activity time separately.
	lastAt Time
	// horizon is the latest timestamp the current window may execute:
	// unbounded under Run without a barrier, the window edge with one
	// (-1 before the first window), t under RunUntil(t).
	horizon Time

	window // lookahead and barrier; without a barrier, one unbounded window
}

// NewKernel returns an empty kernel at time zero, backed by the default
// calendar-queue engine.
func NewKernel() *Kernel { return NewKernelWith(EngineCalendar) }

// NewKernelWith returns an empty kernel at time zero backed by the
// given engine. Experiment harnesses use it to benchmark the engines
// against each other; tests use it to build the reference kernel.
func NewKernelWith(engine Engine) *Kernel {
	switch engine {
	case EngineCalendar, "":
		return &Kernel{q: newCalendarQueue(), horizon: -1}
	case EngineHeap:
		return &Kernel{q: &heapQueue{}, horizon: -1}
	default:
		panic(fmt.Sprintf("sim: unknown kernel engine %q", engine))
	}
}

// Now reports the current virtual time. While a process is running, Now
// is the time at which that process was resumed; processes track the
// cycles they have charged since then in their local clocks.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have run so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// LastEventAt reports the timestamp of the most recently executed
// event (zero if none ran). After Run it equals Now; after RunUntil it
// may lag Now, which RunUntil pins to the requested horizon.
func (k *Kernel) LastEventAt() Time { return k.lastAt }

// SetEventLimit makes Run panic after n events, as a guard against
// protocol livelock in tests. Zero disables the limit.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// checkAt validates a scheduling request. Scheduling in the past is a
// programming error and panics, because it would silently break the
// causal order every model in this repository relies on; so is
// scheduling on a drained kernel (see Drain).
func (k *Kernel) checkAt(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	if k.drained {
		panic("sim: kernel reused after Drain")
	}
}

// At schedules fn to run at absolute virtual time t.
func (k *Kernel) At(t Time, fn func()) { k.AtCall(t, callFn, fn) }

// AtCall schedules fn(arg) at absolute virtual time t. It is the
// allocation-free form of At for hot paths: fn is a long-lived
// pre-bound function (typically created once per component) and arg a
// pointer carrying the per-event state, so scheduling one event does
// not allocate a closure.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) {
	k.checkAt(t)
	k.seq++
	k.q.push(event{at: t, seq: k.seq, call: fn, arg: arg})
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run continues from where Stop left off.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the event queue is empty
// or Stop is called. It returns the final virtual time: the timestamp
// of the last event executed.
//
// With a barrier (OnBarrier), Run executes lock-stepped windows of the
// lookahead, each from the earliest pending event to its edge, and
// calls the barrier between two windows whenever it has work waiting:
// the order of a ShardSet, on one shard. A Stop ends Run mid-window,
// and the next Run finishes that window first.
func (k *Kernel) Run() Time {
	k.checkRunnable()
	k.stopped = false
	if k.barrier == nil {
		k.horizon = math.MaxInt64
		k.runWindow()
		return k.now
	}
	if k.lookahead < 1 {
		panic("sim: Kernel.Run with a barrier before SetLookahead")
	}
	for k.runWindow() {
		if k.waiting() {
			k.runBarrier(k.horizon)
		}
		at, ok := k.q.peekAt()
		if !ok {
			break
		}
		k.horizon = k.open(at)
	}
	return k.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. It is a ShardSet worker's step, so a kernel with a barrier, which
// runs its own windows, refuses it.
func (k *Kernel) RunUntil(t Time) {
	k.checkRunnable()
	if k.barrier != nil {
		panic("sim: RunUntil on a kernel that runs its own windows")
	}
	k.stopped = false
	k.horizon = t
	if k.runWindow() && k.now < t {
		k.now = t
	}
}

// runWindow executes the pending events up to the horizon. It reports
// false when a Stop ended it first.
func (k *Kernel) runWindow() bool {
	for !k.stopped {
		e, ok := k.q.popUntil(k.horizon)
		if !ok {
			return true
		}
		k.now = e.at
		k.lastAt = e.at
		k.executed++
		if k.limit != 0 && k.executed > k.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%d", k.limit, k.now))
		}
		e.run()
	}
	return false
}

// runInPlace runs the event at t that the running process would
// otherwise schedule and yield to: its own resume (Proc.Sync). It does
// so only when that event would be the next one the run loop pops,
// which holds when nothing is pending at or before t (a pending event
// at t was scheduled earlier and wins the tie), no Stop is pending,
// running it stays within the event limit, and t is within the
// current window or the process may cross into the next (below). It
// then accounts the event exactly as the run loop would — the next
// sequence number, the clock, LastEventAt and Executed — but pushes,
// pops and switches nothing, and reports true. Otherwise it schedules
// resume at t and reports false, and the caller yields; Run raises the
// limit panic when it pops it.
//
// Crossing: past the edge of a kernel's own window, the window would
// end, the barrier would run, and the next window would start at the
// earliest pending event. So the kernel takes the resume's sequence
// number, runs the barrier if work waits, and crosses in place into
// the window that starts at t unless a delivery the barrier scheduled
// lands before t; then it schedules the resume with that number, ahead
// of any delivery at t, as the yielding process would have.
func (k *Kernel) runInPlace(t Time, resume func()) bool {
	if k.stopped || k.limit != 0 && k.executed >= k.limit || t > k.horizon && k.barrier == nil {
		k.At(t, resume)
		return false
	}
	if at, ok := k.q.peekAt(); ok && at <= t {
		k.At(t, resume)
		return false
	}
	k.seq++
	if t > k.horizon {
		if k.waiting() {
			seq := k.seq
			k.runBarrier(k.horizon)
			if at, ok := k.q.peekAt(); ok && at < t {
				k.q.push(event{at: t, seq: seq, call: callFn, arg: resume})
				return false
			}
		}
		k.horizon = k.open(t)
	}
	k.now = t
	k.lastAt = t
	k.executed++
	return true
}

// checkRunnable panics when the kernel has been drained: Drain is
// terminal, and silently running a half-torn-down simulation would be
// far worse than the panic.
func (k *Kernel) checkRunnable() {
	if k.drained {
		panic("sim: kernel reused after Drain")
	}
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.q.len() }

// Drain abandons all pending events and unwinds every parked process so
// that no goroutines leak when a simulation is cut short (tests, -quick
// runs). The unwinding is synchronous: when Drain returns, every
// process's deferred calls have run, any events they scheduled are
// discarded too, and its goroutine is gone.
//
// Drain is terminal: the kernel's clock and counters (Now, Executed,
// Pending) remain readable, and Drain itself is idempotent, but any
// attempt to schedule or run afterwards — At, AtCall, After,
// Spawn, Run, RunUntil — panics with "kernel reused after Drain".
// Killed processes left the model in an arbitrary intermediate state,
// so a "fresh" run on the same kernel could never be trusted; build a
// new Kernel instead.
func (k *Kernel) Drain() {
	// The processes unwind outside any run, so none may resume in
	// place or cross a window edge (a deferred Sync yields and unwinds
	// instead).
	k.stopped = true
	for _, p := range k.procs {
		p.kill()
	}
	k.q.clear()
	k.drained = true
}

// Drained reports whether Drain has been called.
func (k *Kernel) Drained() bool { return k.drained }
