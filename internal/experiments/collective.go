package experiments

import (
	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/msgpass"
	"cni/internal/sim"
)

// This file produces FC1, an experiment beyond the paper's figures:
// collective operation latency versus node count, comparing the CNI
// executing the combining schedule in board memory (AIH handlers on
// the receive processor) against the standard interface running the
// identical schedule through host interrupts and kernel handlers. A
// third curve runs the pre-engine linear ring all-reduce on the
// standard interface — the O(N) baseline the O(log N) schedule
// replaces.

// collIters is how many episodes each measurement averages over. Every
// episode after the first is identical (the simulator is
// deterministic), so a short run suffices.
const collIters = 16

// MeasureCollective returns the mean per-episode latency in
// nanoseconds of the given collective on n nodes. op is "barrier",
// "allreduce", or "allreduce-ring".
func MeasureCollective(kind config.NICKind, n int, op string) int64 {
	return measureCollectiveCfg(kind, n, op, nil)
}

// measureCollectiveCfg is MeasureCollective with a config mutator
// (experiment FR1 injects fabric faults through it).
func measureCollectiveCfg(kind config.NICKind, n int, op string, mutate func(*config.Config)) int64 {
	cfg := config.ForNIC(kind)
	if mutate != nil {
		mutate(&cfg)
	}
	return measureCollectiveWithCfg(cfg, n, op)
}

// collectivePoint submits one collective measurement as a harness
// point.
func (o Options) collectivePoint(kind config.NICKind, n int, op string, mutate func(*config.Config)) Future[int64] {
	cfg := config.ForNIC(kind)
	if mutate != nil {
		mutate(&cfg)
	}
	key := pointKey{cfg: cfg, n: n, what: "collective/" + op}
	return submitPoint(o, key, func() int64 { return measureCollectiveWithCfg(cfg, n, op) })
}

func measureCollectiveWithCfg(cfg config.Config, n int, op string) int64 {
	f := mustFabric(&cfg, n)
	var stats collective.Stats
	var ringCycles int64
	f.Run(func(ep *msgpass.Endpoint) {
		switch op {
		case "barrier":
			for i := 0; i < collIters; i++ {
				ep.Barrier()
			}
		case "allreduce":
			for i := 0; i < collIters; i++ {
				ep.AllReduceF64(float64(ep.Node()), msgpass.OpSum)
			}
		case "allreduce-ring":
			p := ep.Proc()
			p.Sync()
			t0 := p.Local()
			for i := 0; i < collIters; i++ {
				ep.AllReduceF64Ring(i*1000, float64(ep.Node()),
					func(a, b float64) float64 { return a + b })
			}
			p.Sync()
			if ep.Node() == 0 {
				ringCycles = int64(p.Local() - t0)
			}
		default:
			panic("experiments: unknown collective op " + op)
		}
		if ep.Node() == 0 {
			stats = ep.CollStats()
		}
	})
	if op == "allreduce-ring" {
		return cfg.CyclesToNS(sim.Time(ringCycles / collIters))
	}
	return cfg.CyclesToNS(sim.Time(stats.Latency.Sum / stats.Latency.Count))
}

// collNodes is the node-count sweep of FC1.
func collNodes(quick bool) []int {
	if quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16, 32}
}

// FigureCollective produces FC1: barrier and all-reduce latency versus
// node count for both interfaces, plus the ring baseline.
func FigureCollective(o Options) Figure {
	f := Figure{ID: "FC1",
		Title:  "Collective operation latency: NIC-combining vs host-handled",
		XLabel: "No of nodes", YLabel: "Latency (us)"}
	series := []struct {
		label string
		kind  config.NICKind
		op    string
	}{
		{"CNI-barrier", config.NICCNI, "barrier"},
		{"Standard-barrier", config.NICStandard, "barrier"},
		{"CNI-allreduce", config.NICCNI, "allreduce"},
		{"Standard-allreduce", config.NICStandard, "allreduce"},
		{"Standard-allreduce-ring", config.NICStandard, "allreduce-ring"},
	}
	nodes := collNodes(o.Quick)
	points := make([][]Future[int64], len(series))
	for i, sp := range series {
		points[i] = make([]Future[int64], len(nodes))
		for j, n := range nodes {
			points[i][j] = o.collectivePoint(sp.kind, n, sp.op, nil)
		}
	}
	for i, sp := range series {
		s := Series{Label: sp.label}
		for j, n := range nodes {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, float64(points[i][j].Wait())/1000)
		}
		f.Series = append(f.Series, s)
	}
	return f
}
