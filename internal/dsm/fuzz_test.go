package dsm_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/sim"
)

// The protocol fuzzer: random SPMD programs whose final state is
// order-independent, so any lost update, stale read or broken
// happens-before shows up as a wrong sum. Each program is a sequence
// of rounds; within a round every node performs random operations
// (writes to its private stripe, lock-protected commutative increments
// of shared counters), and a global barrier closes the round.

type fuzzProgram struct {
	Nodes     uint8
	PageShift uint8
	Rounds    uint8
	Ops       []uint16 // op stream, interpreted per node per round
	Update    bool
	Standard  bool
	// Distributed selects the probable-owner-chain ownership
	// organization. It forces Update off: eager-update copysets are
	// pinned at static homes and the combination does not validate.
	Distributed bool
}

const (
	fuzzWords    = 2048
	fuzzCounters = 16
)

// runFuzz executes the program and returns (counter deltas applied,
// ok). Expected counter values are accumulated host-side and compared
// after the run.
func runFuzz(t *testing.T, fp fuzzProgram) bool {
	t.Helper()
	nodes := int(fp.Nodes)%4 + 2   // 2..5
	rounds := int(fp.Rounds)%4 + 1 // 1..4
	pageBytes := 512 << (int(fp.PageShift) % 3)

	kind := config.NICCNI
	if fp.Standard {
		kind = config.NICStandard
	}
	cfg := config.ForNIC(kind)
	cfg.PageBytes = pageBytes
	cfg.UpdateProtocol = fp.Update
	if fp.Distributed {
		cfg.DSMOwnership = config.DSMDistributed
		cfg.UpdateProtocol = false
	}

	expectCounter := make([]uint64, fuzzCounters)
	expectStripe := make(map[int]uint64)

	// Pre-plan each node's operations so expectations are computed
	// deterministically host-side.
	type op struct {
		kind    int // 0 = stripe write, 1 = locked counter increment, 2 = read
		word    int
		val     uint64
		counter int
	}
	plan := make([][][]op, nodes) // [node][round][]op
	rng := sim.NewRNG(uint64(len(fp.Ops))*31 + uint64(fp.Nodes))
	stripe := fuzzWords / 2 / nodes
	oi := 0
	nextOp := func() uint16 {
		if len(fp.Ops) == 0 {
			return 0
		}
		v := fp.Ops[oi%len(fp.Ops)]
		oi++
		return v
	}
	for n := 0; n < nodes; n++ {
		plan[n] = make([][]op, rounds)
		for r := 0; r < rounds; r++ {
			nops := int(nextOp())%6 + 1
			for k := 0; k < nops; k++ {
				sel := nextOp()
				switch sel % 3 {
				case 0: // write own stripe (second half of the region)
					w := fuzzWords/2 + n*stripe + int(sel/3)%stripe
					v := rng.Uint64()
					plan[n][r] = append(plan[n][r], op{kind: 0, word: w, val: v})
					expectStripe[w] = v // later rounds overwrite
				case 1: // locked increment of a shared counter
					c := int(sel/3) % fuzzCounters
					plan[n][r] = append(plan[n][r], op{kind: 1, counter: c})
					expectCounter[c]++
				case 2: // read a random shared word (must not wedge)
					plan[n][r] = append(plan[n][r], op{kind: 2, word: int(sel/3) % fuzzWords})
				}
			}
		}
	}

	c := mustCluster(&cfg, nodes, func(g *dsm.Globals) { g.Alloc(fuzzWords) })
	// The ownership invariants must hold at every barrier release, not
	// only after the run.
	barriers := 0
	var barrierErr error
	dsm.OnBarrier(c.G, func() {
		barriers++
		if err := dsm.CheckOwnership(c.G); err != nil && barrierErr == nil {
			barrierErr = fmt.Errorf("at barrier %d: %v", barriers, err)
		}
	})
	c.Run(func(w *dsm.Worker) {
		for r := 0; r < rounds; r++ {
			for _, o := range plan[w.Node()][r] {
				switch o.kind {
				case 0:
					w.WriteU64(o.word, o.val)
				case 1:
					w.Lock(100 + o.counter)
					w.WriteU64(o.counter, w.ReadU64(o.counter)+1)
					w.Unlock(100 + o.counter)
				case 2:
					w.ReadU64(o.word)
				}
			}
			w.Barrier(r)
		}
	})

	if barrierErr != nil {
		t.Logf("program %+v: %v", fp, barrierErr)
		return false
	}
	if barriers != rounds {
		t.Logf("program %+v: ownership checked at %d barriers of %d", fp, barriers, rounds)
		return false
	}
	if err := dsm.CheckOwnership(c.G); err != nil {
		t.Logf("program %+v: %v", fp, err)
		return false
	}
	if err := dsm.CheckTwins(c.G); err != nil {
		t.Logf("program %+v: %v", fp, err)
		return false
	}
	if err := dsm.CheckRegion(c.G); err != nil {
		t.Logf("program %+v: %v", fp, err)
		return false
	}
	for ci, want := range expectCounter {
		if got := c.ReadU64(ci); got != want {
			t.Logf("program %+v: counter %d = %d, want %d", fp, ci, got, want)
			return false
		}
	}
	// Stripe writes: the last round's value must be visible at the home.
	// (Each stripe word is written by exactly one node, so "last write"
	// is well defined across rounds.)
	for wd, want := range expectStripe {
		if got := c.ReadU64(wd); got != want {
			t.Logf("program %+v: stripe word %d = %d, want %d", fp, wd, got, want)
			return false
		}
	}
	return true
}

func TestProtocolFuzz(t *testing.T) {
	cfgq := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfgq.MaxCount = 10
	}
	f := func(fp fuzzProgram) bool { return runFuzz(t, fp) }
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolFuzzTinyPages(t *testing.T) {
	// Tiny pages maximize cross-page protocol traffic and multi-writer
	// merges; run a few fixed heavy programs on both protocols.
	for _, update := range []bool{false, true} {
		ok := runFuzz(t, fuzzProgram{
			Nodes: 3, PageShift: 0, Rounds: 3, Update: update,
			Ops: []uint16{9, 100, 2001, 302, 4203, 55, 1206, 77, 2408, 999,
				1310, 211, 3412, 413, 514, 6015, 716, 817},
		})
		if !ok {
			t.Fatalf("heavy program failed (update=%v)", update)
		}
	}
}
