package sim_test

// FuzzKernelSchedule interprets an arbitrary byte stream as a schedule
// program — (op, delta) pairs choosing between the kernel's scheduling
// and run operations — executes it on the calendar-queue engine and on
// the reference heap engine, and requires the two executions to be
// identical. The fuzzer therefore searches directly for any schedule
// on which the production engine diverges from the seed's.

import (
	"bytes"
	"testing"

	"cni/internal/sim"
)

// fuzzMachine interprets one byte stream against one kernel. Event
// bodies consume bytes from the same stream (re-entrant scheduling), so
// the program a kernel sees depends on its execution order — which is
// exactly the property under test: identical order, identical program,
// identical trace.
type fuzzMachine struct {
	k      *sim.Kernel
	data   []byte
	pos    int
	trace  []traceEntry
	nextID uint64
	events int
}

// fuzzMaxEvents bounds the run so adversarial inputs terminate.
const fuzzMaxEvents = 1 << 14

// fuzzDeltas maps a delta byte to a time offset: tie-heavy, straddling
// the calendar's bucket (32) and window (32768) boundaries, with a few
// far-future rungs for the coarse ring (65536, 2^20) and the far heap
// (2^26).
var fuzzDeltas = [16]sim.Time{
	0, 0, 1, 7, 25, 31, 32, 33, 150, 1000, 4095, 32767, 32768, 65536, 1 << 20, 1 << 26,
}

func (m *fuzzMachine) next() (byte, bool) {
	if m.pos >= len(m.data) {
		return 0, false
	}
	b := m.data[m.pos]
	m.pos++
	return b, true
}

func (m *fuzzMachine) delta(b byte) sim.Time { return fuzzDeltas[b&15] }

// schedule enqueues one event whose body records itself and interprets
// up to two more stream bytes as child schedules.
func (m *fuzzMachine) schedule(at sim.Time, useCall bool) {
	if m.events >= fuzzMaxEvents {
		return
	}
	m.events++
	id := m.nextID
	m.nextID++
	if useCall {
		m.k.AtCall(at, m.eventBody, id)
		return
	}
	m.k.At(at, func() { m.eventBody(id) })
}

func (m *fuzzMachine) eventBody(arg any) {
	m.trace = append(m.trace, traceEntry{t: m.k.Now(), id: arg.(uint64)})
	for i := 0; i < 2; i++ {
		b, ok := m.next()
		if !ok || b&3 == 0 {
			return
		}
		m.schedule(m.k.Now()+m.delta(b>>2), b&4 != 0)
	}
}

// run interprets the top-level stream. Ops: schedule (At / AtCall),
// RunUntil a horizon, Run to empty, and Stop-then-resume.
func (m *fuzzMachine) run() {
	for {
		op, ok := m.next()
		if !ok {
			break
		}
		d, ok := m.next()
		if !ok {
			break
		}
		at := m.k.Now() + m.delta(d)
		switch op % 5 {
		case 0, 1:
			m.schedule(at, false)
		case 2:
			m.schedule(at, true)
		case 3:
			m.k.RunUntil(at)
		case 4: // stop mid-run, then resume
			if m.events < fuzzMaxEvents {
				m.k.At(at, m.k.Stop)
			}
			m.k.Run()
		}
	}
	m.k.Run()
	m.k.Drain()
}

func runFuzzSchedule(engine sim.Engine, data []byte) *fuzzMachine {
	m := &fuzzMachine{k: sim.NewKernelWith(engine), data: data}
	m.run()
	return m
}

func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 1, 3, 255})
	f.Add([]byte{1, 11, 1, 11, 1, 11, 4, 9, 0, 0, 5, 3})
	// Window-boundary and far-future-heavy seeds.
	f.Add([]byte{0, 12, 0, 13, 0, 14, 0, 15, 4, 15, 2, 0, 3, 55, 5, 1})
	f.Add([]byte{3, 0x71, 3, 0x72, 3, 0x73, 4, 11, 0, 4, 2, 4, 5, 8, 1, 15})
	// One seed per calendar path. A body byte b schedules at
	// now+fuzzDeltas[b>>2&15] when b&3 != 0; a 0 byte ends the body.
	// Rewind: RunUntil(1) settles the in-order bucket of 150 and parks
	// the clock below it, then 26 lands in an earlier bucket.
	f.Add([]byte{0, 8, 1, 8, 3, 2, 0, 4})
	// Rewind into a heap: the event at 1 schedules 32 behind 33 in the
	// same bucket, RunUntil settles that bucket out of order, then 26
	// lands before it.
	f.Add([]byte{0, 7, 0, 2, 3, 2, 21, 0, 0, 4})
	// FIFO drain: bucket [1, 7, 25] is in order; the event at 1 appends
	// 26 after 25, then the event at 7 schedules 8, which sorts before
	// 26 and turns the bucket into a heap.
	f.Add([]byte{0, 2, 0, 3, 0, 4, 3, 5, 17, 0, 9, 0, 0, 0, 0})
	// RunUntil stops with only the far heap pending, then with only the
	// coarse ring pending; the run then moves far events to a bucket and
	// to a slot.
	f.Add([]byte{0, 15, 3, 14, 0, 4, 0, 2, 3, 0, 4, 15, 0, 0, 0})
	// A 2^20-cycle ticker, run by RunUntil, strides 32 windows at a time
	// past a 2^26 far event: far heap to slot to bucket, wrapping the
	// slot ring twice.
	f.Add(append([]byte{0, 15, 0, 14, 3, 15}, bytes.Repeat([]byte{57, 0}, 70)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := runFuzzSchedule(sim.EngineCalendar, data)
		ref := runFuzzSchedule(sim.EngineHeap, data)
		if len(cal.trace) != len(ref.trace) {
			t.Fatalf("calendar executed %d events, heap %d", len(cal.trace), len(ref.trace))
		}
		for i := range cal.trace {
			if cal.trace[i] != ref.trace[i] {
				t.Fatalf("divergence at event %d: calendar (t=%d id=%d), heap (t=%d id=%d)",
					i, cal.trace[i].t, cal.trace[i].id, ref.trace[i].t, ref.trace[i].id)
			}
		}
		if cal.k.Now() != ref.k.Now() || cal.k.Executed() != ref.k.Executed() {
			t.Fatalf("final state differs: calendar (now=%d executed=%d), heap (now=%d executed=%d)",
				cal.k.Now(), cal.k.Executed(), ref.k.Now(), ref.k.Executed())
		}
	})
}
