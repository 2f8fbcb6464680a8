package sim_test

// Kernel microbenchmarks, each run on both engines so `go test -bench
// Kernel` prints the calendar-versus-heap comparison directly:
//
//   - Sparse: events spread widely in time (little bucket sharing),
//   - FarFuture: timers landing beyond the calendar window, exercising
//     the coarse ring of later windows (retransmit-timer pattern),
//   - Burst: large same-time rounds, which the calendar drains as FIFOs
//     (the torus all-to-all generators' pattern).
//
// TestCalendarSteadyStateAllocs pins down the "allocation-free hot
// loop" claim: after warm-up, scheduling and draining events on the
// calendar engine allocates nothing. TestProcHandoffAllocs does the
// same for the hand-off between the kernel and a process.

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

// TestCalendarSteadyStateAllocs asserts the calendar engine's
// schedule-and-run loop is allocation-free once its slabs are warm: for
// near events in the plain and pre-bound scheduling forms, and for
// far-future timers, whose slot slabs the spare list recycles.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	nopCall := func(any) {}
	for _, leg := range []struct {
		name string
		work func(k *sim.Kernel)
	}{
		{"near", func(k *sim.Kernel) {
			now := k.Now()
			for j := sim.Time(0); j < 16; j++ {
				k.At(now+1+j*25, nopEvent)
				k.AtCall(now+2+j*25, nopCall, nil)
			}
			k.Run()
		}},
		{"far-future", func(k *sim.Kernel) { farFutureRound(k) }},
	} {
		k := sim.NewKernel()
		work := func() { leg.work(k) }
		// Warm the slabs. Slab capacities keep growing for a while: the
		// clock advance per run is not a multiple of the bucket width,
		// so the event pattern cycles through alignment phases and each
		// phase's worst-case bucket must be seen before its slab stops
		// growing. Warm in rounds until a whole measured round
		// allocates nothing, then hold the kernel to it.
		avg := -1.0
		for round := 0; round < 40 && avg != 0; round++ {
			avg = testing.AllocsPerRun(2000, work)
		}
		if avg != 0 {
			t.Fatalf("%s: calendar scheduling still allocating %.1f objects/run after warm-up, want 0", leg.name, avg)
		}
		if avg = testing.AllocsPerRun(2000, work); avg != 0 {
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
