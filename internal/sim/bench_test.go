package sim_test

// Kernel microbenchmarks, each run on both engines so `go test -bench
// Kernel` prints the calendar-versus-heap comparison directly:
//
//   - Sparse: events spread widely in time (little bucket sharing),
//   - FarFuture: timers landing beyond the calendar window, exercising
//     the coarse ring of later windows (retransmit-timer pattern),
//   - Burst: large same-time rounds, which the calendar drains as FIFOs
//     (the torus all-to-all generators' pattern),
//   - Lockstep: the fabric-torus's rounds, 1,024 same-instant resumes
//     that each send a delivery into a later bucket or a ring slot.
//
// TestCalendarSteadyStateAllocs pins down the "allocation-free hot
// loop" claim: after warm-up, scheduling and draining events on the
// calendar engine allocates nothing. TestProcHandoffAllocs does the
// same for the hand-off between the kernel and a process, and
// TestCalendarStorageBound bounds the calendar's memory by the events
// pending.

import (
	"testing"

	"cni/internal/sim"
)

var benchSink sim.Time

func nopEvent() {}

func benchEngines(b *testing.B, run func(b *testing.B, engine sim.Engine)) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		b.Run(string(eng), func(b *testing.B) { run(b, eng) })
	}
}

// BenchmarkKernelSparse schedules batches of events spread across many
// buckets and drains them.
func BenchmarkKernelSparse(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		k := sim.NewKernelWith(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := k.Now()
			for j := sim.Time(0); j < 64; j++ {
				k.At(now+1+j*37, nopEvent)
			}
			benchSink = k.Run()
		}
	})
}

// farFutureRound schedules 32 near events and 32 timers 1M to 2.55M
// cycles ahead, 30 to 77 calendar windows, and runs them all.
func farFutureRound(k *sim.Kernel) sim.Time {
	now := k.Now()
	for j := sim.Time(0); j < 32; j++ {
		k.At(now+1+j, nopEvent)
		k.At(now+1_000_000+j*50_000, nopEvent)
	}
	return k.Run()
}

// BenchmarkKernelFarFuture mixes near events with timers far past the
// calendar window, forcing the coarse ring and its moves into buckets.
func BenchmarkKernelFarFuture(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		k := sim.NewKernelWith(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = farFutureRound(k)
		}
	})
}

// BenchmarkKernelBurst runs rounds of 512 same-time events, each of
// which reschedules itself one round later. One op is one round.
func BenchmarkKernelBurst(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		const burst, round = 512, 1000
		k := sim.NewKernelWith(eng)
		var fire func(any)
		fire = func(any) { k.AtCall(k.Now()+round, fire, nil) }
		for j := 0; j < burst; j++ {
			k.AtCall(round, fire, nil)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.RunUntil(k.Now() + round)
		}
		benchSink = k.Now()
	})
}

// The fabric-torus's lockstep shape: every round lockstepGens
// generators resume at one instant, one serialization time of a 1 KB
// message apart, and each schedules what a torus message does: an
// event 64 cycles on, one a round on, its next resume, and a delivery
// that lands in a later bucket or, mostly, in a ring slot.
const (
	lockstepGens = 1024
	lockstepPace = 2_500
	calWindow    = 1 << 15 // cycles per calendar window
)

// lockstep is a kernel running the lockstep shape; round runs one
// round of it. delay gives the n-th delivery's distance from now.
type lockstep struct {
	k      *sim.Kernel
	delay  func(now, n sim.Time) sim.Time
	sent   sim.Time
	peak   int // most events pending after a resume
	resume func(any)
}

// steadyDelay spreads deliveries evenly over the next eight windows,
// so the shape repeats round after round.
func steadyDelay(_, n sim.Time) sim.Time { return 1 + n*7919%(8*calWindow) }

// torusDelay follows the fabric-torus's deliveries, whose delay grows
// as queues build up across the torus: a message sent at cycle t is
// delivered about 2.17t + 63,000 cycles later, give or take 150,000
// (one 1,024-node pass at seed 1).
func torusDelay(now, n sim.Time) sim.Time {
	return max(1, now*13/6+63_000-150_000+n*7919%300_000)
}

func newLockstep(eng sim.Engine, delay func(now, n sim.Time) sim.Time) *lockstep {
	ls := &lockstep{k: sim.NewKernelWith(eng), delay: delay}
	nop := func(any) {}
	ls.resume = func(any) {
		k := ls.k
		ls.sent++
		k.AtCall(k.Now()+64, nop, nil)
		k.AtCall(k.Now()+lockstepPace, nop, nil)
		k.AtCall(k.Now()+ls.delay(k.Now(), ls.sent), nop, nil)
		k.AtCall(k.Now()+lockstepPace, ls.resume, nil)
		ls.peak = max(ls.peak, k.Pending())
	}
	for j := 0; j < lockstepGens; j++ {
		ls.k.AtCall(lockstepPace, ls.resume, nil)
	}
	return ls
}

func (ls *lockstep) round() { ls.k.RunUntil(ls.k.Now() + lockstepPace) }

// BenchmarkKernelLockstep runs the lockstep shape with steady delays.
// One op is one round: 1,024 resumes, each scheduling four events.
func BenchmarkKernelLockstep(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		ls := newLockstep(eng, steadyDelay)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ls.round()
		}
		benchSink = ls.k.Now()
	})
}

// TestCalendarStorageBound bounds the calendar's memory by the events
// pending: over the fabric-torus's 256 rounds, the slabs the calendar
// holds, in use and pooled, stay within twice the most events ever
// pending. A calendar whose buckets each keep a slab sized to their own
// all-time peak holds about six times as many.
func TestCalendarStorageBound(t *testing.T) {
	ls := newLockstep(sim.EngineCalendar, torusDelay)
	for r := 0; r < 256; r++ {
		ls.round()
	}
	capacity := sim.CalendarCapacity(ls.k)
	t.Logf("slab capacity %d events for at most %d pending (%.2fx)",
		capacity, ls.peak, float64(capacity)/float64(ls.peak))
	if capacity > 2*ls.peak {
		t.Errorf("calendar holds slabs for %d events, more than twice the %d ever pending", capacity, ls.peak)
	}
}

// TestCalendarSteadyStateAllocs asserts the calendar engine's
// schedule-and-run loop is allocation-free once its slabs are warm: for
// near events in the plain and pre-bound scheduling forms, for
// far-future timers, whose slot slabs go back to the pool, and for
// lockstep bursts, whose slabs move up and down the size classes.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	nopCall := func(any) {}
	lockstep := newLockstep(sim.EngineCalendar, steadyDelay)
	for _, leg := range []struct {
		name string
		k    *sim.Kernel
		runs int
		work func(k *sim.Kernel)
	}{
		{"near", sim.NewKernel(), 2000, func(k *sim.Kernel) {
			now := k.Now()
			for j := sim.Time(0); j < 16; j++ {
				k.At(now+1+j*25, nopEvent)
				k.AtCall(now+2+j*25, nopCall, nil)
			}
			k.Run()
		}},
		{"far-future", sim.NewKernel(), 2000, func(k *sim.Kernel) { farFutureRound(k) }},
		{"lockstep-burst", lockstep.k, 50, func(*sim.Kernel) { lockstep.round() }},
	} {
		k := leg.k
		work := func() { leg.work(k) }
		// Warm the slabs. The pool keeps growing for a while: the
		// clock advance per run is not a multiple of the bucket width,
		// so the event pattern cycles through alignment phases, and
		// each phase's worst case must be seen before the pool holds
		// enough slabs of every class. Warm in rounds until a whole
		// measured round allocates nothing, then hold the kernel to it.
		avg := -1.0
		for round := 0; round < 40 && avg != 0; round++ {
			avg = testing.AllocsPerRun(leg.runs, work)
		}
		if avg != 0 {
			t.Fatalf("%s: calendar scheduling still allocating %.1f objects/run after warm-up, want 0", leg.name, avg)
		}
		if avg = testing.AllocsPerRun(leg.runs, work); avg != 0 {
			t.Fatalf("%s: calendar steady-state scheduling allocated %.1f objects/run, want 0", leg.name, avg)
		}
	}
}

// TestProcHandoffAllocs pins the allocation-free hot synchronization
// path: after warm-up, handing control from the kernel to a process and
// back allocates nothing, for an Advance(1)+Sync round trip and for a
// Block/WakeAt round trip.
func TestProcHandoffAllocs(t *testing.T) {
	syncK := sim.NewKernel()
	syncK.Spawn("syncer", func(p *sim.Proc) {
		for {
			p.Advance(1)
			p.Sync()
		}
	})
	blockK := sim.NewKernel()
	sleeper := blockK.Spawn("sleeper", func(p *sim.Proc) {
		for {
			p.Block()
		}
	})
	defer syncK.Drain()
	defer blockK.Drain()
	// Each RunUntil(now+1) executes exactly one resume of the process,
	// which runs until its next Sync or Block.
	syncTrip := func() { syncK.RunUntil(syncK.Now() + 1) }
	blockTrip := func() {
		sleeper.WakeAt(blockK.Now() + 1)
		blockK.RunUntil(blockK.Now() + 1)
	}
	for _, c := range []struct {
		name string
		k    *sim.Kernel
		trip func()
	}{{"Advance+Sync", syncK, syncTrip}, {"Block/WakeAt", blockK, blockTrip}} {
		c.k.RunUntil(0) // start the process
		// Warm the calendar's bucket slabs over two whole windows.
		for i := 0; i < 1<<16; i++ {
			c.trip()
		}
		before := c.k.Executed()
		if avg := testing.AllocsPerRun(1000, c.trip); avg != 0 {
			t.Errorf("%s round trip allocated %.2f objects, want 0", c.name, avg)
		}
		if got := c.k.Executed() - before; got != 1001 {
			t.Errorf("%s: %d events for 1001 round trips, want one each", c.name, got)
		}
	}
}
