package cluster_test

import (
	"testing"

	"cni/internal/apps"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/rpc"
	"cni/internal/workload"
)

// peakCase is one `fold:"max"` field: its value in a node's stats and
// in the cluster total.
type peakCase struct {
	name  string
	node  func(ns cluster.NodeStats) uint64
	total func(res *cluster.Result) uint64
}

// checkPeaks asserts that each folded peak is the maximum over the
// nodes, and that at least two nodes reported one, so summing the
// peaks instead would give a different total.
func checkPeaks(t *testing.T, res *cluster.Result, cases []peakCase) {
	t.Helper()
	for _, pc := range cases {
		var hi, sum uint64
		busy := 0
		for _, ns := range res.PerNode {
			v := pc.node(ns)
			if v > 0 {
				busy++
			}
			sum += v
			hi = max(hi, v)
		}
		if busy < 2 {
			t.Fatalf("%s: only %d node(s) reported a peak; the case cannot tell max from sum", pc.name, busy)
		}
		if got := pc.total(res); got != hi {
			t.Errorf("%s: folded %d, want the per-node maximum %d (sum %d)", pc.name, got, hi, sum)
		}
	}
}

// TestFoldedPeaksTakeTheMaximum runs two overloaded servers under the
// Delay policy and a lossy 4-node Jacobi, so several nodes hold nonzero
// high-water marks: a peak field that lost its `fold:"max"` tag would
// be summed, and this test would see it.
func TestFoldedPeaksTakeTheMaximum(t *testing.T) {
	t.Run("rpc", func(t *testing.T) {
		cfg := config.ForNIC(config.NICCNI)
		rep := workload.Run(&cfg, workload.Spec{
			Servers: 2, Clients: 6, Open: true, Poisson: true, Rate: 60000,
			Requests: 60, ReqBytes: 128, RespBytes: 1024, Seed: 7,
			WorkQueue: 4, FreeBufs: 4, Policy: rpc.Delay,
		})
		checkPeaks(t, rep.Res, []peakCase{
			{"QueuePeak", func(ns cluster.NodeStats) uint64 { return uint64(ns.RPC.QueuePeak) },
				func(r *cluster.Result) uint64 { return uint64(r.RPC.QueuePeak) }},
			{"ParkedPeak", func(ns cluster.NodeStats) uint64 { return uint64(ns.RPC.ParkedPeak) },
				func(r *cluster.Result) uint64 { return uint64(r.RPC.ParkedPeak) }},
		})
	})
	t.Run("jacobi", func(t *testing.T) {
		cfg := config.ForNIC(config.NICCNI)
		// A one-PDU window makes PDUs queue behind a lost one.
		cfg.CellLossRate = 0.01
		cfg.RetransmitWindow = 1
		app := apps.NewJacobi(64, 4)
		c, err := cluster.New(&cfg, 4, app.Setup)
		if err != nil {
			t.Fatal(err)
		}
		app.Init(c)
		res := c.Run(app.Body)
		if err := app.Verify(c); err != nil {
			t.Fatal(err)
		}
		checkPeaks(t, res, []peakCase{
			{"MaxWindow", func(ns cluster.NodeStats) uint64 { return uint64(ns.NIC.Rel.MaxWindow) },
				func(r *cluster.Result) uint64 { return uint64(r.Rel.MaxWindow) }},
			{"MaxQueued", func(ns cluster.NodeStats) uint64 { return uint64(ns.NIC.Rel.MaxQueued) },
				func(r *cluster.Result) uint64 { return uint64(r.Rel.MaxQueued) }},
			{"RetainedBytes", func(ns cluster.NodeStats) uint64 { return ns.NIC.Rel.RetainedBytes },
				func(r *cluster.Result) uint64 { return r.Rel.RetainedBytes }},
		})
	})
}
