package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventSize pins the event record the calendar stores by value:
// time, sequence number, and one call(arg) pair.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("event is %d bytes, want 40", got)
	}
}

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	end := k.Run()
	if end != 50 {
		t.Fatalf("end time = %d, want 50", end)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestKernelTieBreaksBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events ran out of order: %v", got)
		}
	}
}

func TestKernelAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.After(25, func() { at = k.Now() })
	})
	k.Run()
	if at != 125 {
		t.Fatalf("After fired at %d, want 125", at)
	}
}

func TestKernelPanicsOnPastEvent(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestKernelStopAndResume(t *testing.T) {
	k := NewKernel()
	var ran []Time
	k.At(10, func() { ran = append(ran, 10); k.Stop() })
	k.At(20, func() { ran = append(ran, 20) })
	k.Run()
	if len(ran) != 1 {
		t.Fatalf("after Stop ran %v, want just [10]", ran)
	}
	k.Run()
	if len(ran) != 2 || ran[1] != 20 {
		t.Fatalf("resumed run executed %v, want [10 20]", ran)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var ran []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		k.At(at, func() { ran = append(ran, at) })
	}
	k.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) ran %v, want [10 20]", ran)
	}
	if k.Now() != 25 {
		t.Fatalf("Now() = %d after RunUntil(25)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

func TestKernelEventLimit(t *testing.T) {
	k := NewKernel()
	k.SetEventLimit(10)
	var bounce func()
	bounce = func() { k.After(1, bounce) }
	k.After(1, bounce)
	defer func() {
		if recover() == nil {
			t.Error("event limit did not panic")
		}
	}()
	k.Run()
}

func TestKernelDeterminismProperty(t *testing.T) {
	// Property: the same schedule of events produces the same execution
	// trace regardless of how many times it is run.
	run := func(times []uint16) []Time {
		k := NewKernel()
		var trace []Time
		for _, raw := range times {
			at := Time(raw % 1000)
			k.At(at, func() { trace = append(trace, k.Now()) })
		}
		k.Run()
		return trace
	}
	f := func(times []uint16) bool {
		a, b := run(times), run(times)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Trace must be sorted: time never goes backwards.
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceQueuesFIFO(t *testing.T) {
	r := NewResource("bus")
	s1, e1 := r.Use(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first use = [%d,%d], want [0,10]", s1, e1)
	}
	// Second request arrives while busy: queued until 10.
	s2, e2 := r.Use(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("queued use = [%d,%d], want [10,20]", s2, e2)
	}
	// Third request arrives after idle: served immediately.
	s3, e3 := r.Use(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("idle use = [%d,%d], want [100,105]", s3, e3)
	}
	if r.Busy != 25 {
		t.Fatalf("Busy = %d, want 25", r.Busy)
	}
	if r.Waited != 5 {
		t.Fatalf("Waited = %d, want 5", r.Waited)
	}
	if r.Uses != 3 {
		t.Fatalf("Uses = %d, want 3", r.Uses)
	}
}

func TestResourceOccupancyProperty(t *testing.T) {
	// Property: service intervals never overlap and starts never precede
	// arrivals, for arbitrary arrival/duration sequences.
	f := func(reqs []struct {
		Gap uint8
		Dur uint8
	}) bool {
		r := NewResource("x")
		var at, lastEnd Time
		for _, q := range reqs {
			at += Time(q.Gap)
			s, e := r.Use(at, Time(q.Dur))
			if s < at || s < lastEnd || e != s+Time(q.Dur) {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	k := NewKernel()
	var q WaitQueue
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue should return nil")
	}
	p1 := k.Spawn("a", func(p *Proc) {})
	p2 := k.Spawn("b", func(p *Proc) {})
	q.Push(p1)
	q.Push(p2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.Pop() != p1 || q.Pop() != p2 || q.Pop() != nil {
		t.Fatal("WaitQueue did not pop in FIFO order")
	}
	k.Run()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRNGBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of range", v)
		}
		if v := r.Int63n(1e12); v < 0 || v >= 1e12 {
			t.Fatalf("Int63n = %d out of range", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(99)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64RoughlyUniform(t *testing.T) {
	r := NewRNG(1234)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d samples; distribution badly skewed", i, c, n)
		}
	}
}
