package tenant

import (
	"testing"

	"cni/internal/sim"
)

func TestBucketRefillAndBurst(t *testing.T) {
	// 1000 req/s at 1e6 cycles/s = one token per 1000 cycles.
	b := NewBucket(Class{Rate: 1000, Burst: 2}, 1e6)
	if !b.Take(0) || !b.Take(0) {
		t.Fatal("full bucket must admit its burst")
	}
	if b.Take(0) {
		t.Fatal("empty bucket admitted a third request at t=0")
	}
	if b.Take(999) {
		t.Fatal("admitted before a full token accrued")
	}
	if !b.Take(1001) {
		t.Fatal("refused after a token accrued")
	}
	// A long idle period must cap at the burst, not accrue unboundedly.
	if !b.Take(1e9) || !b.Take(1e9) {
		t.Fatal("burst not available after long idle")
	}
	if b.Take(1e9) {
		t.Fatal("bucket exceeded its burst after long idle")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(Class{}, 1e6)
	for i := 0; i < 1000; i++ {
		if !b.Take(sim.Time(i)) {
			t.Fatal("uncontracted tenant throttled")
		}
	}
}

func TestSchedStrictPriority(t *testing.T) {
	s := NewSched[int]([]Class{
		{ID: 0, Priority: 1},
		{ID: 1, Priority: 0},
	}, 0)
	s.Push(0, 100)
	s.Push(1, 200)
	s.Push(0, 101)
	s.Push(1, 201)
	want := []int{200, 201, 100, 101}
	for i, w := range want {
		v, _, ok := s.Pop()
		if !ok || v != w {
			t.Fatalf("pop %d: got %d ok=%v, want %d", i, v, ok, w)
		}
	}
}

func TestSchedWeightedFairShare(t *testing.T) {
	// Weight 3 vs weight 1 at equal priority: with both queues backlogged,
	// tenant 0 must receive three of every four services.
	s := NewSched[int]([]Class{
		{ID: 0, Weight: 3},
		{ID: 1, Weight: 1},
	}, 0)
	for i := 0; i < 400; i++ {
		s.Push(i%2, i)
	}
	got := [2]int{}
	for i := 0; i < 200; i++ {
		_, tn, ok := s.Pop()
		if !ok {
			t.Fatal("scheduler ran dry with queued work")
		}
		got[tn]++
	}
	if got[0] < 145 || got[0] > 155 {
		t.Fatalf("weight-3 tenant got %d of 200 services, want ~150", got[0])
	}
}

func TestSchedQueueBound(t *testing.T) {
	s := NewSched[int]([]Class{{ID: 0}}, 2)
	if !s.Push(0, 1) || !s.Push(0, 2) {
		t.Fatal("push below cap refused")
	}
	if s.Push(0, 3) {
		t.Fatal("push above cap admitted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestStatsMerge(t *testing.T) {
	var a, b Stats
	a.Issued, a.Completed = 3, 2
	b.Issued, b.Rejected, b.Throttled = 4, 1, 5
	a.Merge(b)
	if a.Issued != 7 || a.Completed != 2 || a.Rejected != 1 || a.Throttled != 5 {
		t.Fatalf("merge wrong: %+v", a)
	}
}
