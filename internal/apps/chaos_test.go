package apps

import (
	"math"
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/msgpass"
)

// Chaos regression: the full application stack — Jacobi over the DSM,
// and the FC1 collectives over msgpass — run on a fabric dropping one
// cell in ten thousand, across several fault seeds and both
// interfaces. The reliability layer must make the loss invisible to
// the computation: every run produces exactly the results of the
// lossless fabric, and the same seed reproduces bit-identical
// statistics.

const chaosLoss = 1e-4

func chaosJacobi(t *testing.T, kind config.NICKind, seed uint64, rate float64) *cluster.Result {
	t.Helper()
	cfg := config.ForNIC(kind)
	cfg.FaultSeed = seed
	cfg.CellLossRate = rate
	// Large enough that ~1e5 cells cross the fabric per run, so 1e-4
	// loss injects faults on every seed.
	app := NewJacobi(128, 6)
	c, res := MustExecute(&cfg, 4, app)
	if err := app.Verify(c); err != nil {
		t.Fatalf("%v seed %d loss %v: jacobi diverged from the sequential reference: %v",
			kind, seed, rate, err)
	}
	return res
}

func TestChaosJacobiSurvivesCellLoss(t *testing.T) {
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		for _, seed := range []uint64{1, 2, 3} {
			res := chaosJacobi(t, kind, seed, chaosLoss)
			if res.Net.Faults.CellsDropped > 0 && res.Rel.Retransmits == 0 &&
				res.Rel.DupDiscards == 0 && res.Rel.DropsSeen == 0 {
				t.Fatalf("%v seed %d: cells were dropped but the reliability layer saw nothing", kind, seed)
			}
		}
	}
}

func TestChaosJacobiRecoversFromRealDrops(t *testing.T) {
	// The 1e-4 sweep above may legitimately see zero faults on this
	// workload's few thousand cells; this leg runs hot enough that
	// drops are certain, so the recovery machinery is provably on the
	// path the verified result came through.
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		res := chaosJacobi(t, kind, 1, 1e-3)
		if res.Net.Faults.CellsDropped == 0 {
			t.Fatalf("%v: no cells dropped at 1e-3 loss", kind)
		}
		if res.Rel.Retransmits == 0 {
			t.Fatalf("%v: drops occurred but nothing was retransmitted (%+v)", kind, res.Rel)
		}
	}
}

func TestChaosJacobiSameSeedBitIdentical(t *testing.T) {
	a := chaosJacobi(t, config.NICCNI, 2, chaosLoss)
	b := chaosJacobi(t, config.NICCNI, 2, chaosLoss)
	if a.Time != b.Time {
		t.Fatalf("wall time %d vs %d across identical lossy runs", a.Time, b.Time)
	}
	if a.Net != b.Net {
		t.Fatalf("fabric stats differ across identical lossy runs:\n%+v\nvs\n%+v", a.Net, b.Net)
	}
	if a.Rel != b.Rel {
		t.Fatalf("reliability stats differ across identical lossy runs:\n%+v\nvs\n%+v", a.Rel, b.Rel)
	}
	for i := range a.PerNode {
		if a.PerNode[i] != b.PerNode[i] {
			t.Fatalf("node %d stats differ across identical lossy runs", i)
		}
	}
}

// chaosJacobiTopo is chaosJacobi on an explicit fabric topology; the
// 8-node run lands on a 2x2x2 torus, so most routes cross several
// switch edges and the injector draws on intermediate links too.
func chaosJacobiTopo(t *testing.T, topology string, seed uint64, rate float64) *cluster.Result {
	t.Helper()
	cfg := config.ForNIC(config.NICCNI)
	cfg.Topology = topology
	cfg.FaultSeed = seed
	cfg.CellLossRate = rate
	app := NewJacobi(128, 6)
	c, res := MustExecute(&cfg, 8, app)
	if err := app.Verify(c); err != nil {
		t.Fatalf("%s seed %d loss %v: jacobi diverged from the sequential reference: %v",
			topology, seed, rate, err)
	}
	return res
}

func TestChaosTorusJacobiSameSeedBitIdentical(t *testing.T) {
	// Fault injection on multi-hop torus routes: losses genuinely land
	// on intermediate fabric edges (not just the injection link), the
	// application still verifies, and the same seed reproduces the
	// whole run bit-identically.
	a := chaosJacobiTopo(t, config.TopoTorus, 2, 1e-3)
	b := chaosJacobiTopo(t, config.TopoTorus, 2, 1e-3)
	if a.Net.Faults.CellsDropped == 0 {
		t.Fatal("no cells dropped at 1e-3 loss on the torus")
	}
	if a.Net.HopCount <= a.Net.Messages {
		t.Fatalf("torus routes were not multi-hop: %d hops over %d messages",
			a.Net.HopCount, a.Net.Messages)
	}
	if a.Time != b.Time {
		t.Fatalf("wall time %d vs %d across identical lossy torus runs", a.Time, b.Time)
	}
	if a.Net != b.Net {
		t.Fatalf("fabric stats differ across identical lossy torus runs:\n%+v\nvs\n%+v", a.Net, b.Net)
	}
	if a.Rel != b.Rel {
		t.Fatalf("reliability stats differ across identical lossy torus runs:\n%+v\nvs\n%+v", a.Rel, b.Rel)
	}
	for i := range a.PerNode {
		if a.PerNode[i] != b.PerNode[i] {
			t.Fatalf("node %d stats differ across identical lossy torus runs", i)
		}
	}
}

func TestChaosCollectivesSurviveCellLoss(t *testing.T) {
	const n = 4
	const episodes = 16
	want := 0.0
	for i := 0; i < n; i++ {
		want += float64(i) * 1.5
	}
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := config.ForNIC(kind)
			cfg.FaultSeed = seed
			cfg.CellLossRate = chaosLoss
			f, ferr := msgpass.NewFabric(&cfg, n)
			if ferr != nil {
				panic(ferr)
			}
			bad := false
			f.Run(func(ep *msgpass.Endpoint) {
				for i := 0; i < episodes; i++ {
					got := ep.AllReduceF64(float64(ep.Node())*1.5, msgpass.OpSum)
					if math.Abs(got-want) > 1e-12 {
						bad = true
					}
					ep.Barrier()
				}
			})
			if bad {
				t.Fatalf("%v seed %d: all-reduce under loss disagrees with lossless value %v", kind, seed, want)
			}
		}
	}
}
