package sim_test

// Differential tests: every randomized schedule is replayed on both
// scheduler engines — the calendar queue that production kernels run
// on, and the seed's binary heap kept as the reference implementation —
// and the two executions must agree on the exact (time, scheduling
// order) event sequence. This is the proof obligation behind swapping
// the engine without re-blessing the golden artifacts: if arbitrary
// adversarial schedules execute identically, the experiment suite's
// schedules do too.

import (
	"fmt"
	"math/rand"
	"testing"

	"cni/internal/sim"
)

// traceEntry records one executed event: the virtual time it ran at and
// the identity it was assigned when scheduled (ids are handed out in
// scheduling order, so equal traces mean equal (at, seq) total orders).
type traceEntry struct {
	t  sim.Time
	id uint64
}

// diffProgram drives one kernel through a pseudo-random schedule. All
// randomness is drawn in event-execution order from a seeded PRNG, so
// two engines that execute events in the same order see the same
// program; any divergence shows up as differing traces.
type diffProgram struct {
	k      *sim.Kernel
	rng    *rand.Rand
	trace  []traceEntry
	nextID uint64
	budget int // events still allowed to be scheduled
}

// tieDeltas is the delta menu: heavy on ties (0) and on the 25-cycle
// link-propagation quantum the calendar's bucket width was derived
// from, plus values straddling bucket (32) and window (32768)
// boundaries, timers that land in the coarse ring of later windows,
// and 2^26-cycle timers that start in the far heap.
var tieDeltas = []sim.Time{
	0, 0, 0, 0, 1, 25, 25, 31, 32, 33, 150, 1023, 1024, 4096,
	32767, 32768, 32769, 100000, 1 << 21, 1 << 26,
}

func (p *diffProgram) delta() sim.Time {
	return tieDeltas[p.rng.Intn(len(tieDeltas))]
}

// scheduleOne schedules a single future event via a randomly chosen API
// form (At or AtCall) and returns how many events it enqueued.
func (p *diffProgram) scheduleOne() int {
	if p.budget <= 0 {
		return 0
	}
	at := p.k.Now() + p.delta()
	id := p.nextID
	p.nextID++
	p.budget--
	if p.rng.Intn(2) == 0 {
		p.k.At(at, func() { p.onEvent(id) }) // plain closure
	} else {
		p.k.AtCall(at, p.onEventAny, id) // pre-bound call form
	}
	return 1
}

func (p *diffProgram) onEventAny(arg any) { p.onEvent(arg.(uint64)) }

// onEvent is every event's body: record the execution, then re-entrantly
// schedule 0..3 more events so the queue is mutated while draining
// (including inserts into the bucket currently being popped).
func (p *diffProgram) onEvent(id uint64) {
	p.trace = append(p.trace, traceEntry{t: p.k.Now(), id: id})
	for n := p.rng.Intn(4); n > 0; n-- {
		p.scheduleOne()
	}
}

// runSchedule executes the seeded program on the given engine and
// returns the trace plus the kernel's final clock and event count.
func runSchedule(engine sim.Engine, seed int64, budget int) ([]traceEntry, sim.Time, uint64) {
	p := &diffProgram{
		k:      sim.NewKernelWith(engine),
		rng:    rand.New(rand.NewSource(seed)),
		budget: budget,
	}
	for i := 0; i < 64; i++ {
		p.scheduleOne()
	}
	// Interleave RunUntil horizons with full Runs, with a Stop thrown
	// into the middle of one drain, before running to empty.
	p.k.RunUntil(p.k.Now() + 5000)
	p.k.At(p.k.Now()+7500, func() { p.k.Stop() })
	p.k.Run() // returns at the Stop event
	p.k.RunUntil(p.k.Now() + 40000)
	p.k.Run()
	return p.trace, p.k.Now(), p.k.Executed()
}

func compareTraces(t *testing.T, label string, cal, ref []traceEntry) {
	t.Helper()
	if len(cal) != len(ref) {
		t.Fatalf("%s: calendar executed %d events, heap %d", label, len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("%s: divergence at event %d: calendar ran (t=%d id=%d), heap ran (t=%d id=%d)",
				label, i, cal[i].t, cal[i].id, ref[i].t, ref[i].id)
		}
	}
	for i := 1; i < len(cal); i++ {
		if cal[i].t < cal[i-1].t {
			t.Fatalf("%s: time went backwards at event %d: %d after %d", label, i, cal[i].t, cal[i-1].t)
		}
	}
}

// TestDifferentialRandomSchedules replays large randomized schedules —
// heavy timestamp ties, re-entrant scheduling from event bodies, all
// three scheduling forms, RunUntil/Stop interleavings — on both engines
// and requires bit-identical execution.
func TestDifferentialRandomSchedules(t *testing.T) {
	seeds := 20
	budget := 12000
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		seed := int64(0x5EED + 7919*s)
		label := fmt.Sprintf("seed=%#x", seed)
		cal, calNow, calExec := runSchedule(sim.EngineCalendar, seed, budget)
		ref, refNow, refExec := runSchedule(sim.EngineHeap, seed, budget)
		compareTraces(t, label, cal, ref)
		if calNow != refNow || calExec != refExec {
			t.Fatalf("%s: final state differs: calendar (now=%d executed=%d), heap (now=%d executed=%d)",
				label, calNow, calExec, refNow, refExec)
		}
		if len(cal) < budget {
			t.Fatalf("%s: schedule too small: %d events (want %d)", label, len(cal), budget)
		}
	}
}

// TestDifferentialEventLimit verifies that SetEventLimit aborts both
// engines at the same event, with the identical trace prefix.
func TestDifferentialEventLimit(t *testing.T) {
	run := func(engine sim.Engine) (trace []traceEntry, panicked bool) {
		p := &diffProgram{
			k:      sim.NewKernelWith(engine),
			rng:    rand.New(rand.NewSource(99)),
			budget: 4000,
		}
		for i := 0; i < 64; i++ {
			p.scheduleOne()
		}
		p.k.SetEventLimit(500)
		func() {
			defer func() { panicked = recover() != nil }()
			p.k.Run()
		}()
		return p.trace, panicked
	}
	cal, calPanic := run(sim.EngineCalendar)
	ref, refPanic := run(sim.EngineHeap)
	if !calPanic || !refPanic {
		t.Fatalf("event limit: calendar panicked=%v, heap panicked=%v (want both)", calPanic, refPanic)
	}
	compareTraces(t, "event-limit", cal, ref)
}

// TestDifferentialDrain cuts a run short on both engines and verifies
// the engines agree on the abandoned state, that Drain is idempotent,
// and that both kernels reject reuse identically.
func TestDifferentialDrain(t *testing.T) {
	run := func(engine sim.Engine) (trace []traceEntry, pending int, k *sim.Kernel) {
		p := &diffProgram{
			k:      sim.NewKernelWith(engine),
			rng:    rand.New(rand.NewSource(7)),
			budget: 3000,
		}
		for i := 0; i < 64; i++ {
			p.scheduleOne()
		}
		p.k.At(p.k.Now()+20000, func() { p.k.Stop() })
		p.k.Run()
		return p.trace, p.k.Pending(), p.k
	}
	cal, calPend, calK := run(sim.EngineCalendar)
	ref, refPend, refK := run(sim.EngineHeap)
	compareTraces(t, "drain", cal, ref)
	if calPend != refPend {
		t.Fatalf("pending after Stop: calendar %d, heap %d", calPend, refPend)
	}
	if calPend == 0 {
		t.Fatal("schedule drained before Stop; Drain test needs pending events")
	}
	for _, k := range []*sim.Kernel{calK, refK} {
		k.Drain()
		k.Drain() // idempotent
		if !k.Drained() {
			t.Fatal("Drained() false after Drain")
		}
		if k.Pending() != 0 {
			t.Fatalf("pending %d after Drain", k.Pending())
		}
		// Clock and counters stay readable; scheduling and running panic.
		_ = k.Now()
		_ = k.Executed()
		mustPanic(t, "At after Drain", func() { k.At(k.Now(), func() {}) })
		mustPanic(t, "Run after Drain", func() { k.Run() })
		mustPanic(t, "RunUntil after Drain", func() { k.RunUntil(k.Now() + 1) })
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

// script is a deterministic schedule that TestDifferentialCalendarTiers
// replays on both engines.
type script struct {
	k      *sim.Kernel
	trace  []traceEntry
	nextID uint64
}

// at schedules a recorded event at t whose body then runs body, if any.
func (s *script) at(t sim.Time, body func()) {
	id := s.nextID
	s.nextID++
	s.k.At(t, func() {
		s.trace = append(s.trace, traceEntry{t: s.k.Now(), id: id})
		if body != nil {
			body()
		}
	})
}

// TestDifferentialCalendarTiers replays short deterministic schedules,
// each aimed at one path of the calendar engine, on both engines and
// requires identical execution. The random schedules above reach these
// paths rarely or never: the rewind after RunUntil stops short, the
// FIFO drain of a large same-time burst and its fall-back to a heap,
// RunUntil stopping while only coarse-ring or only far-heap events are
// pending, far-heap events travelling to a slot and to a bucket, and
// the slot ring wrapping around.
func TestDifferentialCalendarTiers(t *testing.T) {
	const window = 1 << 15 // the calendar's window width in cycles
	cases := []struct {
		name string
		run  func(s *script)
	}{
		{"rewind-fifo", func(s *script) {
			for _, at := range []sim.Time{1000, 1001, 1002} {
				s.at(at, nil)
			}
			s.k.RunUntil(500) // settles the bucket of 1000, in order
			s.at(600, nil)    // an earlier bucket: the cursor rewinds
			s.at(1001, nil)
		}},
		{"rewind-heap", func(s *script) {
			for _, at := range []sim.Time{1002, 1001, 1000} {
				s.at(at, nil)
			}
			s.k.RunUntil(500) // settles the bucket of 1000, out of order
			s.at(600, nil)
			s.at(1000, nil)
		}},
		{"burst-fallback", func(s *script) {
			// 600 events at one time, then a later one in the same
			// bucket: the bucket is in order and drains as a FIFO. Pushes
			// after its last event append; pushes at now sort before it
			// and turn the bucket into a heap mid-drain.
			const at = 4096
			for i := 0; i < 600; i++ {
				i := i
				s.at(at, func() {
					if i%7 == 0 {
						s.at(s.k.Now()+20, nil)
					}
					if i%100 == 50 {
						s.at(s.k.Now(), nil)
					}
				})
			}
			s.at(at+20, nil)
		}},
		{"burst-fifo", func(s *script) {
			// A burst whose events reschedule at now and one round
			// later: every bucket stays in order and drains as a FIFO.
			for i := 0; i < 600; i++ {
				i := i
				s.at(8192, func() {
					if i%3 == 0 {
						s.at(s.k.Now(), nil)
					}
					s.at(s.k.Now()+1000, nil)
				})
			}
		}},
		{"rununtil-ring", func(s *script) {
			s.at(100, nil)
			s.at(3*window+7, nil) // three windows ahead: the coarse ring
			s.k.RunUntil(50000)   // stops with only ring events pending
			s.at(50001, nil)      // behind the ring's earliest event
			s.k.RunUntil(60000)   // moves the window, stops on the ring again
			s.at(60005, nil)
			s.at(3*window+3, nil)
		}},
		{"rununtil-far", func(s *script) {
			s.at(100, nil)
			s.at(1<<26+5, nil)    // far heap
			s.k.RunUntil(1 << 20) // stops with only far-heap events pending
			s.at(1<<20+7, nil)    // into the ring, ahead of the far event
			s.at(1<<26+3, nil)
			s.k.RunUntil(1<<26 + 4)
			s.at(1<<26+4, nil)
		}},
		{"far-to-slot-to-bucket", func(s *script) {
			// A ticker steps 32 windows at a time, so the window moves in
			// strides: the 2^26-cycle events wait in the far heap, move
			// to their slots once within 1023 windows, then to buckets.
			s.at(1<<26+9, nil)
			s.at(1<<26, nil)
			s.at(1<<26+window, nil)
			n := 0
			var tick func()
			tick = func() {
				if n++; n < 80 {
					s.at(s.k.Now()+1<<20, tick)
				}
			}
			s.at(1<<20, tick)
			// With the ring empty the window jumps straight to a far
			// event, whose neighbours go to buckets and slots directly.
			s.at(1<<30, nil)
			s.at(1<<30+1, nil)
			s.at(1<<30+window, nil)
		}},
		{"ring-wrap", func(s *script) {
			// Windows past slot 1023 wrap to the ring's start, twice.
			for _, w := range []sim.Time{1000, 1020, 1030, 2040, 2050, 3100} {
				s.at(w*window+3, nil)
				s.at(w*window+1, nil)
				s.at(w*window+3, nil)
			}
		}},
	}
	for _, c := range cases {
		var traces [2][]traceEntry
		var nows [2]sim.Time
		for i, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
			s := &script{k: sim.NewKernelWith(eng)}
			c.run(s)
			nows[i] = s.k.Run()
			traces[i] = s.trace
		}
		compareTraces(t, c.name, traces[0], traces[1])
		if nows[0] != nows[1] {
			t.Fatalf("%s: final time: calendar %d, heap %d", c.name, nows[0], nows[1])
		}
	}
}
