package collective_test

import (
	"math"
	"testing"

	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/msgpass"
	"cni/internal/sim"
)

// configs returns the three interface modes the engine distinguishes:
// AIH combining on the board, the same CNI with collectives forced onto
// the host, and the standard interface.
func configs() map[string]config.Config {
	cni := config.Default()
	cniHost := cni
	cniHost.NICCollectives = false
	return map[string]config.Config{"cni": cni, "cni-host": cniHost, "standard": config.Standard()}
}

func TestBarrierSynchronizesAllSizes(t *testing.T) {
	for cname, cfg := range configs() {
		for _, n := range []int{1, 2, 3, 5, 6, 7, 8, 12} {
			c := cfg
			f := mustFabric(&c, n)
			phase := make([]int, n)
			ok := true
			f.Run(func(ep *msgpass.Endpoint) {
				for it := 0; it < 4; it++ {
					ep.Compute(sim.Time(700 * (ep.Node() + 1)))
					phase[ep.Node()] = it
					ep.Barrier()
					for i := 0; i < n; i++ {
						if phase[i] != it {
							ok = false
						}
					}
					ep.Barrier()
				}
			})
			if !ok {
				t.Fatalf("%s n=%d: barrier let a node run ahead", cname, n)
			}
		}
	}
}

func TestAllReduceValues(t *testing.T) {
	for cname, cfg := range configs() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			c := cfg
			f := mustFabric(&c, n)
			sums := make([]float64, n)
			maxs := make([]float64, n)
			f.Run(func(ep *msgpass.Endpoint) {
				v := float64(ep.Node() + 1)
				sums[ep.Node()] = ep.AllReduceF64(v, msgpass.OpSum)
				maxs[ep.Node()] = ep.AllReduceF64(v, msgpass.OpMax)
			})
			wantSum := float64(n*(n+1)) / 2
			for i := 0; i < n; i++ {
				if sums[i] != wantSum {
					t.Fatalf("%s n=%d node %d: sum = %v, want %v", cname, n, i, sums[i], wantSum)
				}
				if maxs[i] != float64(n) {
					t.Fatalf("%s n=%d node %d: max = %v, want %v", cname, n, i, maxs[i], float64(n))
				}
			}
		}
	}
}

func TestReduceAndBroadcast(t *testing.T) {
	for cname, cfg := range configs() {
		for _, n := range []int{1, 3, 4, 6} {
			for root := 0; root < n; root++ {
				c := cfg
				f := mustFabric(&c, n)
				var reduced float64
				bcast := make([]float64, n)
				f.Run(func(ep *msgpass.Endpoint) {
					r := ep.ReduceF64(root, float64(ep.Node()+1), msgpass.OpProd)
					if ep.Node() == root {
						reduced = r
					}
					bcast[ep.Node()] = ep.BroadcastF64(root, float64(100+root))
				})
				wantProd := 1.0
				for i := 1; i <= n; i++ {
					wantProd *= float64(i)
				}
				if reduced != wantProd {
					t.Fatalf("%s n=%d root=%d: reduce prod = %v, want %v", cname, n, root, reduced, wantProd)
				}
				for i := 0; i < n; i++ {
					if bcast[i] != float64(100+root) {
						t.Fatalf("%s n=%d root=%d node %d: broadcast = %v", cname, n, root, i, bcast[i])
					}
				}
			}
		}
	}
}

// TestNICHostBitIdentical pins the property FC1's comparison rests on:
// the NIC and host paths run the identical schedule, so floating-point
// reductions — where the fold order matters in the last ulp — give
// bit-identical results on every interface mode.
func TestNICHostBitIdentical(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		var ref []uint64
		var refName string
		for cname, cfg := range configs() {
			c := cfg
			f := mustFabric(&c, n)
			got := make([]uint64, n)
			f.Run(func(ep *msgpass.Endpoint) {
				// Values chosen so that a+b+c rounds differently from
				// a different association order.
				v := 0.1 + 1.0/float64(3*(ep.Node()+1))
				got[ep.Node()] = math.Float64bits(ep.AllReduceF64(v, msgpass.OpSum))
			})
			if ref == nil {
				ref, refName = got, cname
				continue
			}
			for i := 0; i < n; i++ {
				if got[i] != ref[i] {
					t.Fatalf("n=%d node %d: %s result %x != %s result %x",
						n, i, cname, got[i], refName, ref[i])
				}
			}
		}
	}
}

// TestBackToBackEpisodes races consecutive episodes: with staggered
// compute, a fast node's round-0 contribution to episode k+1 reaches a
// slow node still inside episode k, exercising the parking path.
func TestBackToBackEpisodes(t *testing.T) {
	for cname, cfg := range configs() {
		for _, n := range []int{3, 4, 8} {
			c := cfg
			f := mustFabric(&c, n)
			bad := -1.0
			f.Run(func(ep *msgpass.Endpoint) {
				for it := 0; it < 12; it++ {
					// No barrier between iterations: the only ordering
					// is the engine's own sequencing.
					ep.Compute(sim.Time(500 * ((ep.Node() + it) % n)))
					got := ep.AllReduceF64(float64(it), msgpass.OpSum)
					if got != float64(it*n) {
						bad = got
					}
				}
			})
			if bad >= 0 {
				t.Fatalf("%s n=%d: cross-episode contamination, got %v", cname, n, bad)
			}
		}
	}
}

// TestAccounting pins where the work lands: AIH runs on the CNI with
// NICCollectives, host handlers otherwise.
func TestAccounting(t *testing.T) {
	run := func(cfg config.Config, n int) (*msgpass.Fabric, []collective.Stats) {
		f := mustFabric(&cfg, n)
		stats := make([]collective.Stats, n)
		f.Run(func(ep *msgpass.Endpoint) {
			for i := 0; i < 3; i++ {
				ep.Barrier()
				ep.AllReduceF64(1, msgpass.OpSum)
			}
			stats[ep.Node()] = ep.CollStats()
		})
		return f, stats
	}

	f, stats := run(config.Default(), 4)
	for i, s := range stats {
		if s.Episodes != 6 || s.Latency.Count != 6 {
			t.Fatalf("cni node %d: episodes=%d latency samples=%d, want 6", i, s.Episodes, s.Latency.Count)
		}
		if s.BoardCombined == 0 || s.HostHandled != 0 {
			t.Fatalf("cni node %d: BoardCombined=%d HostHandled=%d, want board-only", i, s.BoardCombined, s.HostHandled)
		}
		if f.Boards[i].Stats.AIHRuns == 0 || f.Boards[i].Stats.HostHandlers != 0 {
			t.Fatalf("cni board %d: AIHRuns=%d HostHandlers=%d, want AIH-only", i, f.Boards[i].Stats.AIHRuns, f.Boards[i].Stats.HostHandlers)
		}
	}

	f, stats = run(config.Standard(), 4)
	for i, s := range stats {
		if s.BoardCombined != 0 || s.HostHandled == 0 {
			t.Fatalf("standard node %d: BoardCombined=%d HostHandled=%d, want host-only", i, s.BoardCombined, s.HostHandled)
		}
		if f.Boards[i].Stats.AIHRuns != 0 || f.Boards[i].Stats.HostHandlers == 0 {
			t.Fatalf("standard board %d: AIHRuns=%d HostHandlers=%d, want host-only", i, f.Boards[i].Stats.AIHRuns, f.Boards[i].Stats.HostHandlers)
		}
	}
}

func TestSingleNodeCompletesImmediately(t *testing.T) {
	for _, cfg := range configs() {
		c := cfg
		f := mustFabric(&c, 1)
		var sum float64
		var stats collective.Stats
		f.Run(func(ep *msgpass.Endpoint) {
			ep.Barrier()
			sum = ep.AllReduceF64(42, msgpass.OpSum)
			stats = ep.CollStats()
		})
		if sum != 42 {
			t.Fatalf("single-node allreduce = %v", sum)
		}
		if stats.Msgs != 0 {
			t.Fatalf("single-node collective sent %d messages", stats.Msgs)
		}
	}
}

// TestMismatchedProgramOrderPanics: the SPMD discipline is enforced,
// not silently mis-combined.
func TestMismatchedProgramOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched collective kinds did not panic")
		}
	}()
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	f.Run(func(ep *msgpass.Endpoint) {
		if ep.Node() == 0 {
			ep.Barrier()
		} else {
			ep.AllReduceF64(1, msgpass.OpSum)
		}
	})
}

func TestScheduleHelpers(t *testing.T) {
	if got := collective.DissemRounds(1); got != 0 {
		t.Fatalf("DissemRounds(1) = %d", got)
	}
	if got := collective.DissemRounds(5); got != 3 {
		t.Fatalf("DissemRounds(5) = %d", got)
	}
	// Every non-root node's parent must list it as a child, and the tree
	// must cover all n nodes exactly once.
	for _, n := range []int{1, 2, 3, 6, 8, 13} {
		for root := 0; root < n; root++ {
			seen := map[int]bool{root: true}
			for rank := 0; rank < n; rank++ {
				for _, c := range collective.TreeChildren(rank, root, n) {
					if seen[c] {
						t.Fatalf("n=%d root=%d: node %d has two parents", n, root, c)
					}
					seen[c] = true
					if p := collective.TreeParent(c, root, n); p != rank {
						t.Fatalf("n=%d root=%d: child %d of %d has parent %d", n, root, c, rank, p)
					}
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d root=%d: tree covers %d nodes", n, root, len(seen))
			}
		}
	}
}

// mustFabric builds a fabric the test knows is valid.
func mustFabric(cfg *config.Config, n int) *msgpass.Fabric {
	f, err := msgpass.NewFabric(cfg, n)
	if err != nil {
		panic(err)
	}
	return f
}
