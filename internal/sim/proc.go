package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// killedError is panicked inside a process body to unwind it when the
// kernel is drained. It never escapes the package.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed" }

// procPanic is what a panic in a process body becomes when it reaches
// the caller of Kernel.Run: the coroutine re-raises it on the kernel's
// goroutine, so the body's stack is captured while it is still live.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (e *procPanic) Error() string {
	return fmt.Sprintf("sim: proc %s panicked: %v\n\n%s", e.proc, e.value, e.stack)
}

// Proc is a simulated processor (or any other active agent, such as a NIC
// firmware thread). Its body is ordinary Go code running as a coroutine
// (iter.Pull): the kernel resumes it and it yields back, so exactly one
// of them runs at a time and each switch goes straight to the other
// goroutine without passing through the scheduler.
//
// A Proc keeps a local clock that may run ahead of kernel time between
// interaction points: Advance charges cycles locally without touching the
// kernel, and Sync publishes the local clock by yielding until global
// time catches up, or, when no event lies in between, by having the
// kernel advance to it in place. This is the Proteus optimization that
// makes execution-driven simulation of computation-heavy programs
// affordable.
type Proc struct {
	k    *Kernel
	ID   int
	Name string

	local   Time // proc-local clock, >= kernel time whenever the proc runs
	penalty Time // asynchronous time charged to this CPU (e.g. interrupt service)

	// next, stop and yieldTo are the body's coroutine, created when the
	// process starts (stop is nil before): next resumes the body until it
	// yields or returns, stop unwinds it (Kernel.Drain), and yieldTo
	// hands control back.
	next    func() (struct{}, bool)
	stop    func()
	yieldTo func(struct{}) bool

	// resumeFn and wakeFn are the pre-bound event bodies Sync and
	// WakeAt schedule. Binding them once at spawn keeps the hot
	// synchronization path allocation-free: scheduling a Sync or a wake
	// does not create a fresh closure per event.
	resumeFn func()
	wakeFn   func()

	finished    bool
	blocked     bool
	wakePending bool
	blockStart  Time
	lastBlocked Time

	// BlockedTime accumulates cycles spent in Block, i.e. synchronization
	// and communication delay as the paper's tables report it.
	BlockedTime Time
	// PenaltyTime accumulates cycles folded in from AddPenalty, i.e. time
	// stolen from this CPU by asynchronous work such as interrupt service.
	PenaltyTime Time
}

// Spawn creates a process that begins executing fn at time zero.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(name, 0, fn)
}

// SpawnAt creates a process that begins executing fn at time start.
func (k *Kernel) SpawnAt(name string, start Time, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, ID: len(k.procs), Name: name}
	p.resumeFn = p.resumeAndWait
	p.wakeFn = p.wakeEvent
	k.procs = append(k.procs, p)
	k.At(start, func() {
		p.local = k.now
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yieldTo = yield
			p.run(fn)
		})
		p.resumeAndWait()
	})
	return p
}

// run is the coroutine body: execute fn and mark the process finished.
// A kill unwinds silently; any other panic is re-raised with the
// process's name and stack, which iter.Pull then carries to the caller
// of Kernel.Run.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedError); ok {
				return // kernel drained; unwind silently
			}
			panic(&procPanic{proc: p.Name, value: r, stack: debug.Stack()})
		}
	}()
	fn(p)
	p.finished = true
}

// resumeAndWait transfers control to the process and blocks the kernel
// until the process yields or finishes. Kernel-side only.
func (p *Proc) resumeAndWait() { p.next() }

// yield transfers control back to the kernel until the next resume.
// Process-side only. It panics killedError when the kernel is drained
// instead of resuming the process.
func (p *Proc) yield() {
	if !p.yieldTo(struct{}{}) {
		panic(killedError{})
	}
}

// kill unwinds a parked process during Kernel.Drain. The unwinding runs
// before kill returns.
func (p *Proc) kill() {
	if p.stop != nil && !p.finished {
		p.stop()
	}
	p.finished = true
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Advance charges c cycles of local computation. It never yields; the
// cycles become globally visible at the next Sync, Block or WaitUntil.
func (p *Proc) Advance(c Time) {
	if c < 0 {
		panic(fmt.Sprintf("sim: Advance(%d) negative", c))
	}
	p.local += c
}

// Local reports the process's local clock, which is >= Kernel.Now while
// the process is running.
func (p *Proc) Local() Time { return p.local }

// AddPenalty charges c cycles of asynchronous work (interrupt service,
// bus stalls caused by other agents) to this CPU. The charge is folded
// into the local clock at the process's next synchronization, which is
// exact for the pure-computation intervals between synchronizations.
// Kernel-side callers only.
func (p *Proc) AddPenalty(c Time) {
	p.penalty += c
	p.PenaltyTime += c
}

// Sync publishes the local clock: it folds in pending penalties, yields,
// and returns once kernel time has reached the local clock, with every
// intervening event executed. When no event intervenes, the kernel
// runs the resume in place and the process continues without yielding.
func (p *Proc) Sync() {
	for {
		p.local += p.penalty
		p.penalty = 0
		if p.local <= p.k.now {
			p.local = p.k.now
			return
		}
		if !p.k.runInPlace(p.local, p.resumeFn) {
			p.yield()
		}
		p.local = p.k.now
		// A penalty that arrived while we were waiting (an interrupt
		// delivered mid-computation) must still delay this sync; loop
		// until no new penalty appears.
		if p.penalty == 0 {
			return
		}
	}
}

// WaitUntil advances the local clock to at least t and syncs.
func (p *Proc) WaitUntil(t Time) {
	if t > p.local {
		p.local = t
	}
	p.Sync()
}

// Block suspends the process until another agent calls Wake or WakeAt.
// It returns the number of cycles spent blocked. If a Wake arrived while
// the process was syncing (a zero-latency reply), Block returns 0
// immediately. One wake token is buffered at most.
func (p *Proc) Block() Time {
	p.Sync()
	if p.wakePending {
		p.wakePending = false
		p.lastBlocked = 0
		return 0
	}
	p.blocked = true
	p.blockStart = p.local
	p.yield()
	p.local = p.k.now
	return p.lastBlocked
}

// Wake resumes a process blocked in Block at the current kernel time, or
// buffers one wake token if the process has not blocked yet. Kernel-side
// callers only (event handlers, other processes may not call it directly;
// they schedule an event that does).
func (p *Proc) Wake() { p.WakeAt(p.k.now) }

// WakeAt resumes the process at time t (clamped to now and to the
// process's own clock).
func (p *Proc) WakeAt(t Time) {
	if p.finished {
		return
	}
	if !p.blocked {
		p.wakePending = true
		return
	}
	p.blocked = false
	at := t
	if at < p.k.now {
		at = p.k.now
	}
	if at < p.local {
		at = p.local
	}
	p.k.At(at, p.wakeFn)
}

// wakeEvent is the pre-bound event body WakeAt schedules: account the
// blocked interval, then hand control to the process.
func (p *Proc) wakeEvent() {
	p.local = p.k.now
	p.lastBlocked = p.local - p.blockStart
	p.BlockedTime += p.lastBlocked
	p.resumeAndWait()
}

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Blocked reports whether the process is suspended in Block.
func (p *Proc) Blocked() bool { return p.blocked }
