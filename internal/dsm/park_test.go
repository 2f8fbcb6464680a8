package dsm

import "testing"

// Regression for the rotating-barrier-manager race (seen first at 64
// nodes on the Clos in FD1): a participant's barrier enter — whose
// bundle starts just past the previous manager's release clock — can
// reach the next barrier's manager before that manager's own release
// from the previous barrier. Under distributed ownership the
// ahead-of-gap intervals must park and splice once the release lands;
// under central ownership a gap is impossible and must still panic.

func parkRuntime(nodes int, distributed bool) *Runtime {
	return &Runtime{
		node:        nodes - 1,
		distributed: distributed,
		nnodes:      nodes,
		G:           &Globals{nodes: make([]*Runtime, nodes)},
	}
}

// flat lists a bundle's intervals in order.
func flat(bundle [][]*Interval) []*Interval {
	var out []*Interval
	for _, run := range bundle {
		out = append(out, run...)
	}
	return out
}

func TestAbsorbParksAheadOfGap(t *testing.T) {
	r := parkRuntime(3, true)
	iv2 := &Interval{Node: 1, Idx: 2, Pages: []int32{7}}
	iv3 := &Interval{Node: 1, Idx: 3, Pages: []int32{9}}

	// The enter bundle arrives first: nothing splices, nothing is lost.
	if fresh := flat(r.absorbIntervals([][]*Interval{{iv2, iv3}})); len(fresh) != 0 {
		t.Fatalf("ahead-of-gap absorb returned %d fresh intervals, want 0", len(fresh))
	}
	if ps := r.perPeer(); ps.vc[1] != 0 || len(ps.log[1]) != 0 {
		t.Fatalf("vc/log advanced past a gap: vc=%d log=%d", ps.vc[1], len(ps.log[1]))
	}

	// The in-flight release lands: the parked run splices in order and
	// every interval is reported fresh exactly once.
	iv1 := &Interval{Node: 1, Idx: 1, Pages: []int32{3}}
	fresh := flat(r.absorbIntervals([][]*Interval{{iv1}}))
	if len(fresh) != 3 {
		t.Fatalf("gap-closing absorb returned %d fresh intervals, want 3", len(fresh))
	}
	for i, iv := range fresh {
		if iv.Idx != int32(i+1) {
			t.Fatalf("fresh[%d].Idx = %d, want %d", i, iv.Idx, i+1)
		}
	}
	if ps := r.perPeer(); ps.vc[1] != 3 || len(ps.log[1]) != 3 {
		t.Fatalf("after splice vc=%d log=%d, want 3/3", ps.vc[1], len(ps.log[1]))
	}
	if len(r.pendingIv) != 0 {
		t.Fatalf("pendingIv not drained: %v", r.pendingIv)
	}

	// Re-absorbing the same bundle is a no-op.
	if fresh := flat(r.absorbIntervals([][]*Interval{{iv2, iv3}})); len(fresh) != 0 {
		t.Fatalf("duplicate absorb returned %d fresh intervals, want 0", len(fresh))
	}
}

func TestAbsorbGapPanicsUnderCentral(t *testing.T) {
	r := parkRuntime(3, false)
	defer func() {
		if recover() == nil {
			t.Fatal("central-ownership gap did not panic")
		}
	}()
	r.absorbIntervals([][]*Interval{{{Node: 1, Idx: 2}}})
}
