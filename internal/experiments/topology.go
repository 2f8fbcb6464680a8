package experiments

// FT1: the three interface models on multi-switch fabrics. The paper's
// single 32-port banyan caps the cluster at 32 nodes; the topology
// layer (internal/topo) lifts that, so this artifact sweeps 128-1024
// nodes on a Clos/fat-tree and a 3D torus under three adversarial
// traffic patterns and reports the mean application-to-application
// delivery latency:
//
//   - permutation: node i streams to node (i + n/2) % n — on the
//     fat-tree every flow crosses the core, on the torus every flow
//     spans the diameter-scale distance;
//   - incast: every node streams to node 0 — the hot-receiver pattern
//     that serializes on the destination's delivery port regardless of
//     topology (bisection bandwidth cannot help);
//   - alltoall: shifted-permutation rounds (node i sends round r to
//     (i + 1 + r % (n-1)) % n), the uniform load that exercises the
//     whole fabric. Rounds are capped (ft1Rounds) to bound runtime at
//     1024 nodes; at small n it is a true all-to-all.
//
// Each point is a board-level run (no DSM): every node's processor is
// its generator, pacing fixed-size messages at link serialization rate
// and paying its interface's host costs; receive handlers run on the
// board (AIH) where the interface has one, and timestamp arrival.
// Points run on the parallel harness and render bit-identically at
// any -j.

import (
	"fmt"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/nic"
	"cni/internal/sim"
)

const (
	ft1Op    = 0x4654 // "FT"
	ft1Bytes = 1024   // payload per message
)

// ft1Topos lists the multi-switch fabrics the sweep compares. The
// single switch cannot address these node counts.
var ft1Topos = []string{config.TopoClos, config.TopoTorus}

var ft1Patterns = []string{"permutation", "incast", "alltoall"}

func ft1Sizes(quick bool) []int {
	if quick {
		return []int{32, 64}
	}
	return []int{128, 256, 512, 1024}
}

// ft1Rounds is the number of messages each node generates.
func ft1Rounds(pattern string, n int, quick bool) int {
	switch pattern {
	case "permutation":
		if quick {
			return 2
		}
		return 4
	case "incast":
		return 2
	default: // alltoall: capped shifted-permutation rounds
		cap := 32
		if quick {
			cap = 8
		}
		if n-1 < cap {
			return n - 1
		}
		return cap
	}
}

// ft1Dst returns node's destination in round r, or -1 for none.
func ft1Dst(pattern string, node, r, n int) int {
	switch pattern {
	case "permutation":
		return (node + n/2) % n
	case "incast":
		if node == 0 {
			return -1
		}
		return 0
	default: // alltoall
		return (node + 1 + r%(n-1)) % n
	}
}

func ft1Cfg(kind config.NICKind, topoName string) config.Config {
	cfg := config.ForNIC(kind)
	cfg.Topology = topoName
	return cfg
}

// ft1Point submits one (interface, topology, pattern, size) cell.
func (o Options) ft1Point(kind config.NICKind, topoName, pattern string, n int) Future[float64] {
	cfg := ft1Cfg(kind, topoName)
	cfg.SimShards = o.Shards
	rounds := ft1Rounds(pattern, n, o.Quick)
	key := pointKey{cfg: cfg, n: n, what: fmt.Sprintf("ft1/%s/%d", pattern, rounds)}
	return submitPoint(o, key, func() float64 {
		us, _ := ft1Run(cfg, n, pattern, rounds)
		return us
	})
}

// ft1Run is the measurement proper: mean delivery latency in
// microseconds over every message of the pattern, plus the cluster's
// result, for its window counts and per-node host overhead. Every
// node's generator is that node's processor, so an interface that
// interrupts the host slows its sender.
func ft1Run(cfg config.Config, n int, pattern string, rounds int) (float64, *cluster.Result) {
	c := mustCluster(&cfg, n)
	// Latency accumulators are per receiving node and folded in node
	// order after the run: the per-node sums are integers, so the fold
	// is order-independent and the mean is bit-identical to a single
	// shared accumulator — while staying race-free when shards run
	// windows in parallel.
	totals := make([]sim.Time, n)
	counts := make([]uint64, n)
	for i, node := range c.Nodes {
		node.Board.MapPages(0x10000, 1<<16)
		node.Board.MapPages(0x40000, 1<<16)
		node.Board.Register(ft1Op, true, func(at sim.Time, m *nic.Message) {
			totals[i] += at - m.Payload.(sim.Time)
			counts[i]++
		})
	}
	// Pace each generator at the link serialization rate of one
	// message, so offered load saturates the injection link without
	// unbounded in-flight buildup.
	pace := cfg.SerializeCycles(nic.HeaderBytes + ft1Bytes)
	res := c.Run(func(w *dsm.Worker) {
		i, p := w.Node(), w.Proc()
		for r := 0; r < rounds; r++ {
			dst := ft1Dst(pattern, i, r, n)
			if dst < 0 || dst == i {
				p.Advance(pace)
				continue
			}
			p.Sync()
			c.Nodes[i].Board.Send(p, &nic.Message{
				From: i, To: dst, Op: ft1Op,
				Size:         nic.HeaderBytes + ft1Bytes,
				VAddr:        0x10000,
				CacheTx:      true,
				DeliverVAddr: 0x40000,
				DeliverBytes: ft1Bytes,
				Payload:      p.Local(),
			})
			p.Advance(pace)
		}
	})
	var total sim.Time
	var count uint64
	for i := 0; i < n; i++ {
		total += totals[i]
		count += counts[i]
	}
	if count == 0 {
		panic(fmt.Sprintf("experiments: ft1 %s/%d delivered no messages", pattern, n))
	}
	// cycles / MHz = microseconds.
	return float64(total) / float64(count) / float64(cfg.CPUFreqMHz), res
}

// FigureTopology reproduces FT1: 18 series (2 fabrics x 3 patterns x
// 3 interfaces) over the node-count sweep.
func FigureTopology(o Options) Figure {
	f := Figure{ID: "FT1",
		Title:  "Fabric topology sweep: mean delivery latency on Clos and torus fabrics",
		XLabel: "Nodes", YLabel: "Mean latency (us)"}
	sizes := ft1Sizes(o.Quick)
	futs := map[string]Future[float64]{}
	cell := func(topo, pattern string, kind config.NICKind, n int) string {
		return fmt.Sprintf("%s/%s/%s/%d", topo, pattern, kind, n)
	}
	for _, topo := range ft1Topos {
		for _, pattern := range ft1Patterns {
			for _, kind := range sweepKinds {
				for _, n := range sizes {
					futs[cell(topo, pattern, kind, n)] = o.ft1Point(kind, topo, pattern, n)
				}
			}
		}
	}
	top := sizes[len(sizes)-1]
	for _, topo := range ft1Topos {
		for _, pattern := range ft1Patterns {
			for _, kind := range sweepKinds {
				s := Series{Label: fmt.Sprintf("%s-%s-%s", topo, pattern, kind.Display())}
				for _, n := range sizes {
					s.X = append(s.X, float64(n))
					s.Y = append(s.Y, futs[cell(topo, pattern, kind, n)].Wait())
				}
				f.Series = append(f.Series, s)
			}
			// Sanity: at the top size the hot receiver must queue at
			// least as badly as the contention-free permutation.
			for _, kind := range sweepKinds {
				in := futs[cell(topo, "incast", kind, top)].Wait()
				perm := futs[cell(topo, "permutation", kind, top)].Wait()
				if in < perm {
					panic(fmt.Sprintf("experiments: ft1 %s/%s incast %.2fus beat permutation %.2fus",
						topo, kind, in, perm))
				}
			}
		}
	}
	return f
}
