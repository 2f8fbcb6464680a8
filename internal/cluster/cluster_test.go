package cluster

import (
	"runtime"
	"testing"

	"cni/internal/config"
	"cni/internal/dsm"
)

func TestPreloadVisibleEverywhereWithoutTraffic(t *testing.T) {
	cfg := config.Default()
	c := mustNew(&cfg, 4, func(g *dsm.Globals) { g.Alloc(1024) })
	for i := 0; i < 1024; i++ {
		c.PreloadF64(i, float64(i)*0.5)
	}
	res := c.Run(func(w *dsm.Worker) {
		// Every node reads its *own* home block: zero faults, zero
		// traffic, preloaded values visible.
		per := 1024 / w.Nodes() // words per home block (page-aligned here)
		lo := w.Node() * per
		for i := lo; i < lo+per; i++ {
			if got := w.ReadF64(i); got != float64(i)*0.5 {
				t.Errorf("node %d: word %d = %v", w.Node(), i, got)
				return
			}
		}
	})
	if res.Net.Messages != 0 {
		t.Fatalf("home-only reads caused %d messages", res.Net.Messages)
	}
}

func TestReadBackFromHomes(t *testing.T) {
	cfg := config.Default()
	c := mustNew(&cfg, 2, func(g *dsm.Globals) { g.Alloc(512) })
	c.Run(func(w *dsm.Worker) {
		if w.Node() == 0 {
			w.WriteU64(3, 42)
			w.WriteF64(300, 2.5) // word 300 is in node 1's home block
		}
		w.Barrier(0)
	})
	if got := c.ReadU64(3); got != 42 {
		t.Fatalf("ReadU64(3) = %d", got)
	}
	if got := c.ReadF64(300); got != 2.5 {
		t.Fatalf("ReadF64(300) = %v", got)
	}
}

func TestResultShape(t *testing.T) {
	cfg := config.Standard()
	c := mustNew(&cfg, 3, func(g *dsm.Globals) { g.Alloc(256) })
	res := c.Run(func(w *dsm.Worker) {
		w.Compute(1000)
		w.Barrier(0)
	})
	if len(res.PerNode) != 3 {
		t.Fatalf("PerNode has %d entries", len(res.PerNode))
	}
	for i, ns := range res.PerNode {
		if ns.Total <= 0 {
			t.Errorf("node %d total = %d", i, ns.Total)
		}
		if ns.Overhead+ns.Delay+ns.Computation != ns.Total {
			t.Errorf("node %d breakdown does not sum", i)
		}
	}
	if res.HitRatio != 0 {
		t.Fatal("standard cluster must report zero hit ratio")
	}
}

func TestInvalidConfigErrors(t *testing.T) {
	cfg := config.Default()
	cfg.LinkMbps = 0
	if _, err := New(&cfg, 2, func(g *dsm.Globals) { g.Alloc(64) }); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = config.Default()
	if _, err := New(&cfg, 64, func(g *dsm.Globals) { g.Alloc(64) }); err == nil {
		t.Fatal("64 nodes on the single 32-port switch accepted")
	}
}

func TestTrafficAccountingInvariants(t *testing.T) {
	// Cross-layer bookkeeping: every message sent is received exactly
	// once; on the CNI every arrival is either AIH-handled or host-
	// delivered; wire bytes >= data bytes (cell overhead).
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		cfg := config.ForNIC(kind)
		c := mustNew(&cfg, 4, func(g *dsm.Globals) { g.Alloc(2048) })
		res := c.Run(func(w *dsm.Worker) {
			for i := 0; i < 8; i++ {
				w.Lock(3)
				w.WriteU64(0, w.ReadU64(0)+1)
				w.Unlock(3)
				w.WriteU64(512+w.Node()*64, uint64(i))
				w.Barrier(i)
			}
		})
		var sends, recvs, aih, host uint64
		for _, n := range c.Nodes {
			sends += n.Board.Stats.Sends
			recvs += n.Board.Stats.Receives
			aih += n.Board.Stats.AIHRuns
			host += n.Board.Stats.HostHandlers
		}
		if sends != recvs {
			t.Fatalf("%v: %d sends vs %d receives", kind, sends, recvs)
		}
		if sends != res.Net.Messages {
			t.Fatalf("%v: boards sent %d, fabric carried %d", kind, sends, res.Net.Messages)
		}
		if aih+host != recvs {
			t.Fatalf("%v: %d AIH + %d host != %d receives", kind, aih, host, recvs)
		}
		if kind == config.NICCNI && aih == 0 {
			t.Fatal("CNI ran no Application Interrupt Handlers")
		}
		if kind == config.NICStandard && aih != 0 {
			t.Fatal("standard board ran AIH")
		}
		if res.Net.WireBytes < res.Net.DataBytes {
			t.Fatalf("%v: wire bytes %d below data bytes %d", kind, res.Net.WireBytes, res.Net.DataBytes)
		}
		if res.Net.Cells == 0 {
			t.Fatal("no cells counted")
		}
	}
}

func TestInterruptVsPollSplitByNIC(t *testing.T) {
	// The standard interface must never poll; the CNI must poll under
	// bursty protocol traffic.
	mk := func(kind config.NICKind) *Cluster {
		cfg := config.ForNIC(kind)
		c := mustNew(&cfg, 4, func(g *dsm.Globals) { g.Alloc(4096) })
		c.Run(func(w *dsm.Worker) {
			for i := 0; i < 6; i++ {
				for j := 0; j < 16; j++ {
					w.WriteU64(w.Node()*128+j+512, uint64(i*j))
				}
				w.Barrier(i)
			}
		})
		return c
	}
	std := mk(config.NICStandard)
	var polls uint64
	for _, n := range std.Nodes {
		polls += n.Board.Stats.Polls
	}
	if polls != 0 {
		t.Fatalf("standard interface polled %d times", polls)
	}
}

// mustNew builds a cluster the test knows is valid.
func mustNew(cfg *config.Config, n int, setup Setup) *Cluster {
	c, err := New(cfg, n, setup)
	if err != nil {
		panic(err)
	}
	return c
}

// TestPagelessClusterAllocation bounds what building a 1,024-node
// torus cluster with no shared pages allocates, as FT1's generators
// build it. The DSM's per-peer vectors (vector clock, barrier clock
// and interval log, each indexed by node) cost n² entries across the
// cluster, so a node makes them at its first use, and this cluster
// never synchronizes through the DSM.
func TestPagelessClusterAllocation(t *testing.T) {
	const nodes, budget = 1024, 20 << 20
	cfg := config.Default()
	cfg.Topology = config.TopoTorus
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := mustNew(&cfg, nodes, nil)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a page-less %d-node cluster allocated %.1f MB", nodes, float64(got)/(1<<20))
	if got > budget {
		t.Errorf("a page-less %d-node cluster allocated %.1f MB, want at most %d MB",
			nodes, float64(got)/(1<<20), budget>>20)
	}
	runtime.KeepAlive(c)
}
