package atm

import (
	"fmt"
	"reflect"
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// delivery is one observed packet arrival, everything the model can
// see: who, when, and in what condition.
type delivery struct {
	Src, Dst int
	At       sim.Time
	Damaged  bool
}

// shardTraffic drives a fixed deterministic workload — every node runs
// a periodic event chain sending to a rotating partner, with
// intentional same-cycle ties across nodes — and returns the per-node
// delivery traces plus the folded fabric stats. shards == 0 runs the
// fabric on a caller's kernel (New), which runs its own windows.
func shardTraffic(t *testing.T, cfg *config.Config, n, shards int, engine sim.Engine) ([][]delivery, Stats) {
	t.Helper()
	var nw *Network
	var kernelOf func(i int) *sim.Kernel
	var run func()
	if shards == 0 {
		k := sim.NewKernelWith(engine)
		var err error
		nw, err = New(k, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		kernelOf = func(int) *sim.Kernel { return k }
		run = func() { k.Run() }
	} else {
		var ss *sim.ShardSet
		var err error
		nw, ss, err = NewSharded(cfg, n, shards, engine)
		if err != nil {
			t.Fatal(err)
		}
		kernelOf = nw.NodeKernel
		run = func() { ss.Run() }
	}

	got := make([][]delivery, n)
	for i := 0; i < n; i++ {
		i := i
		nw.Attach(i, func(p *Packet, at sim.Time) {
			got[i] = append(got[i], delivery{Src: p.Src, Dst: p.Dst, At: at, Damaged: p.Damaged})
		})
	}
	const rounds = 40
	for i := 0; i < n; i++ {
		i := i
		k := kernelOf(i)
		round := 0
		var step func()
		step = func() {
			sz := 48 + 100*(round%7)
			dst := (i + 1 + round%(n-1)) % n
			nw.Send(k.Now()+2, &Packet{Src: i, Dst: dst, Size: sz})
			round++
			if round < rounds {
				k.After(97, step)
			}
		}
		// (i%4)*50: nodes i, i+4, i+8 … send at identical cycles.
		k.At(sim.Time(1+(i%4)*50), step)
	}
	run()
	nw.Finish()
	return got, nw.Stats
}

// TestShardedFabricParity pins the tentpole invariant at the fabric
// layer: delivery traces and stats are bit-identical between a fabric
// on the caller's kernel and every shard count, on every topology,
// with faults off and on, for both engines.
func TestShardedFabricParity(t *testing.T) {
	for _, topoKind := range []string{config.TopoSingle, config.TopoClos, config.TopoTorus} {
		for _, faulty := range []bool{false, true} {
			for _, engine := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
				name := fmt.Sprintf("%s/faults=%v/%s", topoKind, faulty, engine)
				t.Run(name, func(t *testing.T) {
					cfg := config.Default()
					cfg.Topology = topoKind
					if faulty {
						cfg.CellLossRate = 0.002
						cfg.CellCorruptRate = 0.002
						cfg.CellDupRate = 0.002
						cfg.ReorderWindow = 3
						cfg.RetransmitWindow = 8
						cfg.RetransmitTimeoutNS = 500000
						cfg.RetransmitBackoff = 8
					}
					const n = 12
					want, wantStats := shardTraffic(t, &cfg, n, 0, engine)
					for _, shards := range []int{1, 2, 4, n} {
						got, gotStats := shardTraffic(t, &cfg, n, shards, engine)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d: delivery traces diverge from the caller's kernel", shards)
						}
						if gotStats != wantStats {
							t.Fatalf("shards=%d: stats diverge:\n got %+v\nwant %+v", shards, gotStats, wantStats)
						}
					}
				})
			}
		}
	}
}

// TestShardedLookaheadHolds exercises the R4 guard indirectly: a large
// all-to-all burst on the torus must complete without tripping the
// delivery-before-edge panic, even with reorder delays in play.
func TestShardedLookaheadHolds(t *testing.T) {
	cfg := config.Default()
	cfg.Topology = config.TopoTorus
	cfg.CellLossRate = 0.01
	cfg.CellDupRate = 0.01
	cfg.ReorderWindow = 5
	cfg.RetransmitWindow = 8
	cfg.RetransmitTimeoutNS = 500000
	cfg.RetransmitBackoff = 8
	const n = 27
	nw, ss, err := NewSharded(&cfg, n, 4, sim.EngineCalendar)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		nw.Attach(i, func(p *Packet, at sim.Time) { delivered[i]++ })
	}
	for i := 0; i < n; i++ {
		i := i
		k := nw.NodeKernel(i)
		k.At(1, func() {
			for d := 0; d < n; d++ {
				if d != i {
					nw.Send(k.Now(), &Packet{Src: i, Dst: d, Size: 200})
				}
			}
		})
	}
	ss.Run()
	total := 0
	for _, c := range delivered {
		total += c
	}
	if total == 0 {
		t.Fatal("no deliveries")
	}
}

// TestDrainLedgerSortsSameTimeSends issues same-instant sends to one
// port in descending source order, so every ledger is out of canonical
// order and the barrier must sort it: on one shard and on two, the
// port serves the sources in ascending order, at the same times. The
// usual ledger is already in order and skips the sort, so this test is
// what reaches it.
func TestDrainLedgerSortsSameTimeSends(t *testing.T) {
	const n = 8
	cfg := config.Default()
	var want []delivery
	for _, shards := range []int{1, 2} {
		nw, ss, err := NewSharded(&cfg, n, shards, sim.EngineCalendar)
		if err != nil {
			t.Fatal(err)
		}
		if ss.Shards() != shards {
			t.Fatalf("%d shards, want %d", ss.Shards(), shards)
		}
		var got []delivery
		for i := 0; i < n; i++ {
			nw.Attach(i, func(p *Packet, at sim.Time) {
				got = append(got, delivery{Src: p.Src, Dst: p.Dst, At: at})
			})
		}
		for src := n - 1; src > 0; src-- {
			k := nw.NodeKernel(src)
			k.At(1, func() { nw.Send(k.Now(), &Packet{Src: src, Dst: 0, Size: 480}) })
		}
		ss.Run()
		if len(got) != n-1 {
			t.Fatalf("shards=%d: %d deliveries, want %d", shards, len(got), n-1)
		}
		for i, d := range got {
			if d.Src != i+1 {
				t.Fatalf("shards=%d: delivery %d from node %d, want node %d (ascending sources)", shards, i, d.Src, i+1)
			}
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: deliveries %v, one shard %v", shards, got, want)
		}
	}
}
