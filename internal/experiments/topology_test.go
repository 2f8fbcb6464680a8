package experiments

import (
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// TestFT1WindowCounts pins the window driver's cost on a tiny torus,
// 64 nodes running 8 all-to-all rounds: the windows opened and the
// barriers run depend only on the simulated schedule, so one and two
// shards give the same counts. A change that narrows the windows, or
// runs barriers with nothing to do, fails here. The last window is
// the cluster run's closing Sync.
func TestFT1WindowCounts(t *testing.T) {
	const wantWindows, wantBarriers = 62, 8
	cfg := ft1Cfg(config.NICCNI, config.TopoTorus)
	rounds := ft1Rounds("alltoall", 64, true)
	for _, shards := range []int{1, 2} {
		cfg.SimShards = shards
		_, res := ft1Run(cfg, 64, "alltoall", rounds)
		if w, b := res.Windows, res.Barriers; w != wantWindows || b != wantBarriers {
			t.Errorf("shards=%d: %d windows and %d barriers, want %d and %d",
				shards, w, b, wantWindows, wantBarriers)
		}
	}
}

// TestFT1HostsPayForInterrupts requires FT1's generators to be host
// processors that pay what their interface costs: on a 64-node torus
// all-to-all the CNI's hosts spend no cycle on the network, while the
// OSIRIS and standard hosts are charged for the interrupts and kernel
// paths of their arrivals.
func TestFT1HostsPayForInterrupts(t *testing.T) {
	rounds := ft1Rounds("alltoall", 64, true)
	for _, kind := range sweepKinds {
		_, res := ft1Run(ft1Cfg(kind, config.TopoTorus), 64, "alltoall", rounds)
		var overhead sim.Time
		for _, ns := range res.PerNode {
			overhead += ns.Overhead
		}
		if kind == config.NICCNI && overhead != 0 {
			t.Errorf("%v: hosts spent %d cycles of overhead, want 0", kind, overhead)
		}
		if kind != config.NICCNI && overhead == 0 {
			t.Errorf("%v: hosts spent no cycle of overhead; their interrupts went uncharged", kind)
		}
		t.Logf("%v: %d cycles of host overhead", kind, overhead)
	}
}
