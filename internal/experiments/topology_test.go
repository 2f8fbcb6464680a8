package experiments

import (
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// TestFT1EngineEquivalence re-checks, at experiment level, that the
// simulated result of an FT1 leg is independent of the kernel engine:
// identical mean latency and identical event count.
func TestFT1EngineEquivalence(t *testing.T) {
	cfg := ft1Cfg(config.NICCNI, config.TopoTorus)
	rounds := ft1Rounds("alltoall", 64, true)
	calLat, calEv := ft1RunEngine(cfg, 64, "alltoall", rounds, sim.EngineCalendar)
	refLat, refEv := ft1RunEngine(cfg, 64, "alltoall", rounds, sim.EngineHeap)
	if calLat != refLat || calEv != refEv {
		t.Fatalf("engines diverge: calendar (lat=%v events=%d), heap (lat=%v events=%d)",
			calLat, calEv, refLat, refEv)
	}
}
