package experiments

import (
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// TestFT1EngineEquivalence re-checks, at experiment level, that the
// simulated result of an FT1 leg is independent of the kernel engine:
// identical mean latency, event count and window count.
func TestFT1EngineEquivalence(t *testing.T) {
	cfg := ft1Cfg(config.NICCNI, config.TopoTorus)
	rounds := ft1Rounds("alltoall", 64, true)
	calLat, cal := ft1RunEngine(cfg, 64, "alltoall", rounds, sim.EngineCalendar)
	refLat, ref := ft1RunEngine(cfg, 64, "alltoall", rounds, sim.EngineHeap)
	if calLat != refLat || cal.Executed() != ref.Executed() || cal.Windows() != ref.Windows() {
		t.Fatalf("engines diverge: calendar (lat=%v events=%d windows=%d), heap (lat=%v events=%d windows=%d)",
			calLat, cal.Executed(), cal.Windows(), refLat, ref.Executed(), ref.Windows())
	}
}

// TestFT1WindowCounts pins the window driver's cost on a tiny torus,
// 64 nodes running 8 all-to-all rounds: the windows opened and the
// barriers run depend only on the simulated schedule, so one and two
// shards give the same counts. A change that narrows the windows, or
// runs barriers with nothing to do, fails here.
func TestFT1WindowCounts(t *testing.T) {
	const wantWindows, wantBarriers = 61, 8
	cfg := ft1Cfg(config.NICCNI, config.TopoTorus)
	rounds := ft1Rounds("alltoall", 64, true)
	for _, shards := range []int{1, 2} {
		cfg.SimShards = shards
		_, drv := ft1RunEngine(cfg, 64, "alltoall", rounds, sim.EngineCalendar)
		if w, b := drv.Windows(), drv.Barriers(); w != wantWindows || b != wantBarriers {
			t.Errorf("shards=%d: %d windows and %d barriers, want %d and %d",
				shards, w, b, wantWindows, wantBarriers)
		}
	}
}
