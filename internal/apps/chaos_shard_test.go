package apps

import (
	"fmt"
	"reflect"
	"testing"

	"cni/internal/atm"
	"cni/internal/config"
	"cni/internal/memsys"
	"cni/internal/metrics"
	"cni/internal/nic"
	"cni/internal/sim"
)

// Chaos regression for the sharded kernel: board-level all-to-all
// traffic — the full NIC datapath with go-back-N reliability — on the
// multi-switch fabrics, under cell loss and reordering, must produce
// the identical run at every shard count: same per-node delivery
// trace, same fabric statistics, same reliability counters, from the
// same fault seed.

const chaosShardOp = 0x5353 // "SS"

// chaosShardRun drives paced all-to-all board traffic over a faulty
// fabric and returns the per-node arrival traces plus the folded
// fabric and reliability statistics. shards == 0 runs the plain
// single-kernel path.
func chaosShardRun(t *testing.T, topo string, shards int) ([][]sim.Time, atm.Stats, nic.RelStats) {
	t.Helper()
	cfg := config.ForNIC(config.NICCNI)
	cfg.Topology = topo
	cfg.FaultSeed = 2
	cfg.CellLossRate = 1e-3
	cfg.ReorderWindow = 3
	const n = 16
	const rounds = 12

	var net *atm.Network
	var ss *sim.ShardSet
	var err error
	if shards == 0 {
		k := sim.NewKernel()
		net, err = atm.New(k, &cfg, n)
	} else {
		net, ss, err = atm.NewSharded(&cfg, n, shards, sim.EngineCalendar)
	}
	if err != nil {
		t.Fatal(err)
	}

	boards := make([]*nic.Board, n)
	got := make([][]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		b := nic.NewBoard(net.NodeKernel(i), &cfg, i, net, memsys.New(&cfg))
		b.MapPages(0x10000, 1<<16)
		b.Register(chaosShardOp, true, func(at sim.Time, m *nic.Message) {
			got[i] = append(got[i], at)
		})
		boards[i] = b
	}
	pace := cfg.SerializeCycles(nic.HeaderBytes + 512)
	for i := 0; i < n; i++ {
		i := i
		net.NodeKernel(i).Spawn(fmt.Sprintf("gen%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				dst := (i + 1 + r%(n-1)) % n
				if dst == i {
					p.Advance(pace)
					continue
				}
				p.Sync()
				boards[i].Send(p, &nic.Message{
					From: i, To: dst, Op: chaosShardOp,
					Size: nic.HeaderBytes + 512, VAddr: 0x10000, CacheTx: true,
				})
				p.Advance(pace)
			}
		})
	}
	if ss != nil {
		ss.Run()
	} else {
		net.NodeKernel(0).Run()
	}
	net.Finish()
	var rel nic.RelStats
	for i := 0; i < n; i++ {
		metrics.Fold(&rel, boards[i].Stats.Rel)
	}
	return got, net.Stats, rel
}

// TestChaosShardedFabricBitIdentical is the sharded chaos gate on both
// multi-switch topologies: the lossy, reordering run is bit-identical
// between the plain kernel and shard counts 1 and 4 — and the faults
// genuinely fired, so the parity covers the retransmit machinery, not
// just clean traffic.
func TestChaosShardedFabricBitIdentical(t *testing.T) {
	for _, topo := range []string{config.TopoTorus, config.TopoClos} {
		t.Run(topo, func(t *testing.T) {
			wantTrace, wantNet, wantRel := chaosShardRun(t, topo, 0)
			if wantNet.Faults.CellsDropped == 0 {
				t.Fatalf("%s: no cells dropped — the chaos leg is not exercising faults", topo)
			}
			if wantRel.Retransmits == 0 {
				t.Fatalf("%s: drops occurred but nothing was retransmitted (%+v)", topo, wantRel)
			}
			for _, shards := range []int{1, 4} {
				gotTrace, gotNet, gotRel := chaosShardRun(t, topo, shards)
				if !reflect.DeepEqual(gotTrace, wantTrace) {
					t.Fatalf("%s shards=%d: delivery traces diverge from the plain kernel", topo, shards)
				}
				if gotNet != wantNet {
					t.Fatalf("%s shards=%d: fabric stats diverge:\n got %+v\nwant %+v", topo, shards, gotNet, wantNet)
				}
				if gotRel != wantRel {
					t.Fatalf("%s shards=%d: reliability stats diverge:\n got %+v\nwant %+v", topo, shards, gotRel, wantRel)
				}
			}
		})
	}
}
