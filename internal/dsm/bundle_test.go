package dsm

import (
	"slices"
	"sort"
	"testing"
)

// Tests for notice bundles: per-writer runs that are capped subslices
// of the sender's interval log, and the barrier payload merge over
// them.

// logOf returns a log of intervals 1..n of writer w, with spare
// capacity, so that an append through an uncapped run would land in the
// log's own backing array.
func logOf(w, n int) []*Interval {
	l := make([]*Interval, 0, n+8)
	for i := 1; i <= n; i++ {
		l = append(l, &Interval{Node: w, Idx: int32(i), Pages: []int32{int32(w), int32(i)}})
	}
	return l
}

// checkShares fails unless every run of bundle is a capped subslice of
// log starting at the writer's clock entry in from.
func checkShares(t *testing.T, what string, bundle [][]*Interval, log [][]*Interval, from []int32) {
	t.Helper()
	for _, run := range bundle {
		w := run[0].Node
		l := log[w]
		if cap(run) != len(run) {
			t.Fatalf("%s: writer %d run has len %d cap %d, want cap == len", what, w, len(run), cap(run))
		}
		if start := int(from[w]); &run[0] != &l[start] || len(run) != len(l)-start {
			t.Fatalf("%s: writer %d run is not log[%d][%d:]", what, w, w, start)
		}
	}
}

func TestBundleSharesLog(t *testing.T) {
	r := parkRuntime(4, false)
	rs := r.perPeer()
	lens := []int{3, 0, 5, 2}
	for w, n := range lens {
		rs.log[w] = logOf(w, n)
		rs.vc[w] = int32(n)
	}
	since := []int32{1, 0, 2, 2}
	bundle := r.newIntervalBundleSince(since)
	if len(bundle) != 2 || bundle[0][0].Node != 0 || bundle[1][0].Node != 2 {
		t.Fatalf("bundle covers writers %v, want runs of writers 0 and 2", writersOf(bundle))
	}
	checkShares(t, "newIntervalBundleSince", bundle, rs.log, since)
	for _, run := range bundle {
		w := run[0].Node
		before := slices.Clone(rs.log[w][:cap(rs.log[w])])
		_ = append(run, &Interval{Node: w, Idx: 99})
		if after := rs.log[w][:cap(rs.log[w])]; !slices.Equal(before, after) {
			t.Fatalf("appending to writer %d's run changed its log", w)
		}
	}

	// The receiver's fresh runs share the receiver's log the same way.
	q := parkRuntime(4, false)
	qs := q.perPeer()
	for w := range lens {
		qs.log[w] = make([]*Interval, 0, 16)
		qs.log[w] = append(qs.log[w], rs.log[w][:min(1, len(rs.log[w]))]...)
		qs.vc[w] = int32(len(qs.log[w]))
	}
	had := slices.Clone(qs.vc)
	fresh := q.absorbIntervals(r.newIntervalBundleSince(had))
	if got, want := intervalCount(fresh), 3+5+2-3; got != want {
		t.Fatalf("absorb returned %d fresh intervals, want %d", got, want)
	}
	checkShares(t, "absorbIntervals", fresh, qs.log, had)
}

func writersOf(bundle [][]*Interval) []int {
	var ws []int
	for _, run := range bundle {
		ws = append(ws, run[0].Node)
	}
	return ws
}

// flatMerge is the barrier merge over flat bundles that the per-writer
// runs replaced, kept as the oracle: bucket each side's intervals into
// per-writer runs, keep the run reaching furthest, and list them in
// writer order.
func flatMerge(a, b []*Interval) []*Interval {
	runs := make(map[int][]*Interval)
	bucket := func(ivs []*Interval) {
		for start := 0; start < len(ivs); {
			end := start + 1
			for end < len(ivs) && ivs[end].Node == ivs[start].Node {
				end++
			}
			run := ivs[start:end]
			w := ivs[start].Node
			if cur := runs[w]; cur == nil || run[len(run)-1].Idx > cur[len(cur)-1].Idx {
				runs[w] = run
			}
			start = end
		}
	}
	bucket(a)
	bucket(b)
	writers := make([]int, 0, len(runs))
	for w := range runs {
		writers = append(writers, w)
	}
	sort.Ints(writers)
	var out []*Interval
	for _, w := range writers {
		out = append(out, runs[w]...)
	}
	return out
}

// FuzzMergeBarPayloads checks the run merge against the flat oracle on
// two payloads cut from shared interval sequences. Every writer's run
// starts at the same index on both sides, one past lastBarVC, as the
// barrier guarantees; each side cuts it at its own length, or omits it.
// The merge must also be idempotent and order-insensitive: the
// dissemination schedule relies on both on non-power-of-two clusters.
func FuzzMergeBarPayloads(f *testing.F) {
	f.Add(uint8(3), []byte{0, 4, 2, 4, 1, 3, 0, 3, 2, 0, 0, 0})
	f.Add(uint8(5), []byte{3, 5, 5, 1, 0, 2, 2, 2, 1, 1, 0, 1, 2, 4, 4, 0})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nodes uint8, raw []byte) {
		n := int(nodes)%8 + 1
		next := func(mod int) int {
			if len(raw) == 0 {
				return 0
			}
			v := int(raw[0])
			raw = raw[1:]
			return v % mod
		}
		side := func() *barPayload { return &barPayload{vc: make([]int32, n)} }
		pa, pb := side(), side()
		for w := range n {
			base, length := next(4), next(7)
			seq := logOf(w, base+length)
			for _, p := range []*barPayload{pa, pb} {
				// Each side's log is its own array over the shared
				// intervals, as on two nodes.
				cut := base + next(length+1)
				log := append(make([]*Interval, 0, cut+4), seq[:cut]...)
				p.vc[w] = int32(cut)
				if cut > base {
					p.notices = append(p.notices, log[base:cut:cut])
				}
			}
		}
		flatten := func(p *barPayload) []*Interval {
			var out []*Interval
			for _, run := range p.notices {
				out = append(out, run...)
			}
			return out
		}
		ab := mergeBarPayloads(pa, pb).(*barPayload)
		if got, want := flatten(ab), flatMerge(flatten(pa), flatten(pb)); !slices.Equal(got, want) {
			t.Fatalf("merge lists %d intervals %v, flat oracle %d %v", len(got), got, len(want), want)
		}
		for i, run := range ab.notices {
			if len(run) == 0 || cap(run) != len(run) {
				t.Fatalf("merged run %d has len %d cap %d", i, len(run), cap(run))
			}
			if i > 0 && ab.notices[i-1][0].Node >= run[0].Node {
				t.Fatalf("merged runs out of writer order: %v", writersOf(ab.notices))
			}
		}
		for w := range n {
			if want := max(pa.vc[w], pb.vc[w]); ab.vc[w] != want {
				t.Fatalf("merged vc[%d] = %d, want %d", w, ab.vc[w], want)
			}
		}
		if got, want := barPayloadBytes(ab), noticeBytes([][]*Interval{flatMerge(flatten(pa), flatten(pb))})+4*n; got != want {
			t.Fatalf("merged payload is %d bytes, want %d", got, want)
		}
		same := func(what string, p *barPayload) {
			t.Helper()
			if !slices.Equal(flatten(p), flatten(ab)) || !slices.Equal(p.vc, ab.vc) {
				t.Fatalf("%s differs from merge(a, b)", what)
			}
		}
		same("merge(b, a)", mergeBarPayloads(pb, pa).(*barPayload))
		same("merge(merge(a, b), a)", mergeBarPayloads(ab, pa).(*barPayload))
		same("merge(b, merge(a, b))", mergeBarPayloads(pb, ab).(*barPayload))
		same("merge(merge(a, b), merge(a, b))", mergeBarPayloads(ab, ab).(*barPayload))
		if aa := mergeBarPayloads(pa, pa).(*barPayload); !slices.Equal(flatten(aa), flatten(pa)) || !slices.Equal(aa.vc, pa.vc) {
			t.Fatal("merge(a, a) differs from a")
		}
	})
}
