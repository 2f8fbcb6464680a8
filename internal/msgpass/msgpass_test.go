package msgpass

import (
	"math"
	"reflect"
	"testing"

	"cni/internal/atm"
	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
)

func TestPingPong(t *testing.T) {
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		cfg := config.ForNIC(kind)
		f := mustFabric(&cfg, 2)
		var rtt sim.Time
		f.Run(func(ep *Endpoint) {
			const rounds = 5
			if ep.Node() == 0 {
				start := ep.Proc().Local()
				for i := 0; i < rounds; i++ {
					ep.Send(1, 1, 1024)
					ep.Recv(2)
				}
				ep.Proc().Sync()
				rtt = (ep.Proc().Local() - start) / rounds
			} else {
				for i := 0; i < rounds; i++ {
					ep.Recv(1)
					ep.Send(0, 2, 1024)
				}
			}
		})
		if rtt <= 0 {
			t.Fatalf("%v: rtt = %d", kind, rtt)
		}
		t.Logf("%v ping-pong 1KB rtt = %d cycles", kind, rtt)
	}
}

func TestCNIPingPongBeatsStandard(t *testing.T) {
	measure := func(kind config.NICKind) sim.Time {
		cfg := config.ForNIC(kind)
		f := mustFabric(&cfg, 2)
		return f.Run(func(ep *Endpoint) {
			if ep.Node() == 0 {
				for i := 0; i < 10; i++ {
					ep.Send(1, 1, 2048)
					ep.Recv(2)
				}
			} else {
				for i := 0; i < 10; i++ {
					ep.Recv(1)
					ep.Send(0, 2, 2048)
				}
			}
		})
	}
	cni, std := measure(config.NICCNI), measure(config.NICStandard)
	if cni >= std {
		t.Fatalf("CNI ping-pong (%d) not faster than standard (%d)", cni, std)
	}
}

func TestRecvMatchesByTagInArrivalOrder(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	var got []uint64
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			ep.Send(1, 7, 0, 100)
			ep.Send(1, 9, 0, 200)
			ep.Send(1, 7, 0, 101)
		} else {
			// Tag 9 first even though it arrived between the two 7s.
			got = append(got, ep.Recv(9).Data[0])
			got = append(got, ep.Recv(7).Data[0])
			got = append(got, ep.Recv(7).Data[0])
		}
	})
	if len(got) != 3 || got[0] != 200 || got[1] != 100 || got[2] != 101 {
		t.Fatalf("got %v, want [200 100 101]", got)
	}
}

func TestActiveMessageRunsOnBoard(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	counter := uint64(0)
	f.Run(func(ep *Endpoint) {
		ep.RegisterAM(1, func(c AMContext, args []uint64) {
			counter += args[0]
			c.Reply(2, args[0]*2)
		})
		ep.RegisterAM(2, func(c AMContext, args []uint64) {
			counter += 1000 * args[0]
		})
		if ep.Node() == 0 {
			for i := uint64(1); i <= 3; i++ {
				ep.SendAM(1, 1, i)
			}
			// Wait for the three echo replies to land.
			ep.Proc().Advance(100_000_000)
			ep.Proc().Sync()
		}
	})
	// Node 1's handler summed 1+2+3=6; node 0's reply handler summed
	// 1000*(2+4+6)=12000.
	if counter != 6+12000 {
		t.Fatalf("counter = %d, want 12006", counter)
	}
	// The AIH path must not have involved the host on the CNI.
	if f.Boards[1].Stats.AIHRuns != 3 {
		t.Fatalf("AIHRuns = %d, want 3", f.Boards[1].Stats.AIHRuns)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		cfg := config.Default()
		f := mustFabric(&cfg, n)
		phase := make([]int, n)
		ok := true
		f.Run(func(ep *Endpoint) {
			for it := 0; it < 5; it++ {
				// Stagger the nodes so the barrier actually has to wait.
				ep.Compute(sim.Time(1000 * (ep.Node() + 1)))
				phase[ep.Node()] = it
				ep.Barrier()
				// After the barrier everyone must be in the same phase.
				for i := 0; i < n; i++ {
					if phase[i] != it {
						ok = false
					}
				}
				ep.Barrier()
			}
		})
		if !ok {
			t.Fatalf("n=%d: barrier let a node run ahead", n)
		}
	}
}

func TestAllReduce(t *testing.T) {
	for _, n := range []int{2, 4, 8, 3, 5} {
		cfg := config.Default()
		f := mustFabric(&cfg, n)
		results := make([]float64, n)
		f.Run(func(ep *Endpoint) {
			v := float64(ep.Node() + 1)
			results[ep.Node()] = ep.AllReduceF64(v, OpSum)
		})
		want := float64(n*(n+1)) / 2
		for i, r := range results {
			if math.Abs(r-want) > 1e-12 {
				t.Fatalf("n=%d node %d: allreduce = %v, want %v", n, i, r, want)
			}
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 4)
	var got float64
	f.Run(func(ep *Endpoint) {
		v := float64((ep.Node() * 37) % 11)
		r := ep.AllReduceF64(v, OpMax)
		if ep.Node() == 0 {
			got = r
		}
	})
	if got != 9 { // values: 0, 4, 8, 1... (0*37)%11=0 (1*37)%11=4 (2*37)%11=8 (3*37)%11=1 -> max 8
		if got != 8 {
			t.Fatalf("allreduce max = %v", got)
		}
	}
}

func TestRepeatedSendHitsMessageCache(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			for i := 0; i < 10; i++ {
				ep.Send(1, 5, 4096) // same tag -> same heap buffer
			}
		} else {
			for i := 0; i < 10; i++ {
				ep.Recv(5)
			}
		}
	})
	mc := f.Boards[0].MC
	if mc.Stats.TxHits < 8 {
		t.Fatalf("TxHits = %d, want >=8 (repeated buffer must hit)", mc.Stats.TxHits)
	}
}

func TestDeadlockedReceivePanicsCleanly(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked receive did not panic")
		}
	}()
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			ep.Recv(99) // nobody sends
		}
	})
}

func TestSendToBadRankPanics(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	caught := false
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			defer func() { caught = recover() != nil }()
			ep.Send(5, 1, 0)
		}
	})
	if !caught {
		t.Fatal("send to rank 5 of 2 accepted")
	}
}

func TestFabricDeterministic(t *testing.T) {
	run := func() sim.Time {
		cfg := config.Default()
		f := mustFabric(&cfg, 4)
		return f.Run(func(ep *Endpoint) {
			for i := 0; i < 3; i++ {
				ep.AllReduceF64(float64(ep.Node()), OpSum)
				ep.Barrier()
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestArrivalsConsumeFreeQueue(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			for i := 0; i < 5; i++ {
				ep.Send(1, 1, 1024)
			}
		} else {
			for i := 0; i < 5; i++ {
				ep.Recv(1)
			}
		}
	})
	if got := f.Boards[1].Stats.FreeConsumed; got != 5 {
		t.Fatalf("FreeConsumed = %d, want 5", got)
	}
}

// mixedRun is what TestShardParity compares across shard counts.
type mixedRun struct {
	end      sim.Time
	executed uint64
	boards   []nic.Stats
	net      atm.Stats
}

// runMixed runs one program over every endpoint primitive — matched
// Send/Recv, an active message and its board-side reply, Barrier,
// AllReduceF64 and the host-message AllReduceF64Ring — on eight nodes
// at the given shard count, and checks its answers. Every handler
// writes only its own node's slot, so the program is race-free at any
// shard count.
func runMixed(t *testing.T, kind config.NICKind, shards int) mixedRun {
	const n = 8
	cfg := config.ForNIC(kind)
	cfg.SimShards = shards
	f := mustFabric(&cfg, n)
	if got := f.Cluster.Shards(); got != max(shards, 1) {
		t.Fatalf("%v shards=%d: fabric runs on %d shards", kind, shards, got)
	}
	from := make([]uint64, n)
	echo := make([]uint64, n)
	sum := make([]float64, n)
	ring := make([]float64, n)
	end := f.Run(func(ep *Endpoint) {
		me := ep.Node()
		ep.RegisterAM(1, func(c AMContext, args []uint64) { c.Reply(2, args[0]+100) })
		ep.RegisterAM(2, func(c AMContext, args []uint64) { echo[me] = args[0] })
		ep.Barrier() // every handler is registered before the first AM
		ep.Compute(sim.Time(300 * (me + 1)))
		ep.Send((me+1)%n, 7, 512, uint64(me))
		ep.SendAM((me+3)%n, 1, uint64(me))
		from[me] = ep.Recv(7).Data[0]
		sum[me] = ep.AllReduceF64(float64(me), OpSum)
		ring[me] = ep.AllReduceF64Ring(1000, float64(me), func(a, b float64) float64 { return a + b })
		ep.Barrier()
	})
	for i := 0; i < n; i++ {
		if from[i] != uint64((i+n-1)%n) || echo[i] != uint64(i+100) || sum[i] != 28 || ring[i] != 28 {
			t.Fatalf("%v shards=%d node %d: recv from %d, echo %d, sum %v, ring %v",
				kind, shards, i, from[i], echo[i], sum[i], ring[i])
		}
	}
	r := mixedRun{end: end, executed: f.Cluster.Executed(), net: f.Cluster.Net.Stats}
	for _, b := range f.Boards {
		r.boards = append(r.boards, b.Stats)
	}
	return r
}

// TestShardParity runs the mixed program at shards 0, 2, 4 and 8 and
// requires the same end time, events executed, per-board statistics
// and fabric statistics as the one-shard run.
func TestShardParity(t *testing.T) {
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		base := runMixed(t, kind, 0)
		for _, shards := range []int{2, 4, 8} {
			if got := runMixed(t, kind, shards); !reflect.DeepEqual(got, base) {
				t.Fatalf("%v shards=%d differs from one shard:\n got %+v\nwant %+v", kind, shards, got, base)
			}
		}
	}
}

// TestFabricCountersFolded checks that Run folds the fabric counters:
// after a run of plain sends, the fabric has counted every one.
func TestFabricCountersFolded(t *testing.T) {
	cfg := config.Default()
	f := mustFabric(&cfg, 2)
	f.Run(func(ep *Endpoint) {
		if ep.Node() == 0 {
			ep.Send(1, 1, 1024)
			ep.Send(1, 1, 0, 42)
			ep.Recv(2)
		} else {
			ep.Recv(1)
			ep.Recv(1)
			ep.Send(0, 2, 0)
		}
	})
	sent := f.eps[0].Sent + f.eps[1].Sent
	if got := f.Cluster.Net.Stats.Messages; sent != 3 || got != sent {
		t.Fatalf("fabric counted %d messages, endpoints sent %d (want 3)", got, sent)
	}
}

// mustFabric builds a fabric the test knows is valid.
func mustFabric(cfg *config.Config, n int) *Fabric {
	f, err := NewFabric(cfg, n)
	if err != nil {
		panic(err)
	}
	return f
}
