// Collectives: barrier, reduce, broadcast and all-reduce executing as
// Application Interrupt Handlers on the CNI board — contributions are
// combined in board memory by the receive processor and forwarded
// along the schedule without crossing the host bus — versus the
// standard interface running the identical schedule through host
// interrupts and kernel handlers.
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"log"

	"cni"
)

func main() {
	// An 8-node fabric with the board-combined collectives (the
	// default configuration enables them).
	cfg := cni.DefaultConfig()
	f, err := cni.NewFabric(&cfg, 8)
	if err != nil {
		panic(err)
	}
	var stats cni.CollStats
	sum := make([]float64, 8)
	f.Run(func(ep *cni.Endpoint) {
		// Global sum of ranks: O(log N) rounds, combined on the boards.
		sum[ep.Node()] = ep.AllReduceF64(float64(ep.Node()), cni.ReduceSum)

		// Reduce to a root, then broadcast the result back out.
		m := ep.ReduceF64(0, float64(ep.Node()+1), cni.ReduceMax)
		if ep.Node() == 0 && m != 8 {
			panic("reduce")
		}
		ep.BroadcastF64(0, m)

		ep.Barrier()
		if ep.Node() == 0 {
			stats = ep.CollStats()
		}
	})
	fmt.Printf("8-node all-reduce sum of ranks = %v (want 28)\n", sum[0])
	if sum[0] != 28 {
		log.Fatalf("all-reduce sum = %v, want 28", sum[0])
	}
	fmt.Printf("node 0 engine stats: %d episodes, %d arrivals combined on the board, %d on the host\n",
		stats.Episodes, stats.BoardCombined, stats.HostHandled)
	fmt.Printf("board 0: AIHRuns=%d HostHandlers=%d (collective traffic never reached the host)\n\n",
		f.Boards[0].Stats.AIHRuns, f.Boards[0].Stats.HostHandlers)

	// The FC1 comparison: the same O(log N) schedule on both
	// interfaces, plus the linear ring the engine replaces.
	fmt.Printf("%6s  %13s  %13s  %15s\n", "nodes", "CNI barrier", "std barrier", "std ring a-r")
	for _, n := range []int{2, 4, 8, 16, 32} {
		c, _ := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricCollective, Nodes: n, Op: "barrier"})
		s, _ := cni.Measure(cni.NICStandard, cni.Probe{Metric: cni.MetricCollective, Nodes: n, Op: "barrier"})
		r, _ := cni.Measure(cni.NICStandard, cni.Probe{Metric: cni.MetricCollective, Nodes: n, Op: "allreduce-ring"})
		fmt.Printf("%6d  %10.2f us  %10.2f us  %12.2f us\n",
			n, c/1000, s/1000, r/1000)
	}
	fmt.Println("\n(the board-combined barrier grows with log N alone; the host-handled")
	fmt.Println("schedule pays an interrupt plus kernel handler every hop, and the ring")
	fmt.Println("baseline grows linearly with N.)")
}
