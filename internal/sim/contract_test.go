package sim_test

// API-contract tests for the pre-bound scheduling form added with the
// calendar engine (AtCall) and for the terminal Drain contract, on both
// engines.

import (
	"testing"

	"cni/internal/sim"
)

// TestAtCall verifies the pre-bound form delivers the argument at the
// right time and orders with At by scheduling sequence.
func TestAtCall(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		k := sim.NewKernelWith(eng)
		var got []string
		k.AtCall(7, func(a any) { got = append(got, "call:"+a.(string)) }, "x")
		k.At(7, func() { got = append(got, "fn") })
		k.AtCall(3, func(a any) { got = append(got, a.(string)) }, "early")
		k.Run()
		if len(got) != 3 || got[0] != "early" || got[1] != "call:x" || got[2] != "fn" {
			t.Fatalf("%s: ran %v", eng, got)
		}
		if k.Now() != 7 {
			t.Fatalf("%s: final time %d, want 7", eng, k.Now())
		}
	}
}

// TestDrainTerminal pins the post-Drain contract: Drain is idempotent,
// observers stay readable, and every scheduling or running entry point
// panics explicitly rather than silently running a half-torn-down
// simulation.
func TestDrainTerminal(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		k := sim.NewKernelWith(eng)
		k.At(5, func() {})
		k.At(900000, func() {}) // parked on the calendar's overflow ladder
		p := k.SpawnAt("blocked", 0, func(pp *sim.Proc) {
			pp.WakeAt(1 << 40)
		})
		k.RunUntil(2)
		if k.Pending() == 0 {
			t.Fatalf("%s: expected pending events before Drain", eng)
		}
		k.Drain()
		if !k.Drained() {
			t.Fatalf("%s: Drained() false after Drain", eng)
		}
		if k.Pending() != 0 {
			t.Fatalf("%s: %d events survived Drain", eng, k.Pending())
		}
		k.Drain() // idempotent
		_, _, _ = k.Now(), k.Executed(), p.Name

		mustPanic(t, string(eng)+": At", func() { k.At(k.Now()+1, func() {}) })
		mustPanic(t, string(eng)+": AtCall", func() { k.AtCall(k.Now()+1, func(any) {}, nil) })
		mustPanic(t, string(eng)+": After", func() { k.After(1, func() {}) })
		mustPanic(t, string(eng)+": Run", func() { k.Run() })
		mustPanic(t, string(eng)+": RunUntil", func() { k.RunUntil(k.Now() + 10) })
	}
}
