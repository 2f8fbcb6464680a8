// Quickstart: build a two-node cluster with the CNI interface, share a
// counter through the DSM, and measure the headline microbenchmark.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cni"
)

func main() {
	// A 4-node cluster on the paper's Table 1 machine, CNI boards.
	cfg := cni.DefaultConfig()
	cluster, err := cni.NewCluster(&cfg, 4, func(g *cni.Globals) {
		g.Alloc(64) // one page of shared words
	})
	if err != nil {
		panic(err)
	}

	// Every node increments a lock-protected shared counter 10 times.
	res := cluster.Run(func(w *cni.Worker) {
		for i := 0; i < 10; i++ {
			w.Lock(0)
			w.WriteU64(0, w.ReadU64(0)+1)
			w.Unlock(0)
		}
		w.Barrier(0)
	})

	counter := cluster.ReadU64(0)
	fmt.Printf("counter        = %d (want 40)\n", counter)
	if counter != 40 {
		log.Fatalf("counter = %d, want 40", counter)
	}
	fmt.Printf("virtual time   = %d cycles (%.2f ms at %d MHz)\n",
		res.Time, float64(res.Time)/float64(cfg.CPUFreqMHz)/1000, cfg.CPUFreqMHz)
	fmt.Printf("hit ratio      = %.1f%%\n", res.HitRatio)
	fmt.Printf("messages       = %d (%d bytes on the wire)\n",
		res.Net.Messages, res.Net.WireBytes)

	// The paper's headline: node-to-node latency, CNI vs standard.
	for _, size := range []int{64, 1024, 4096} {
		c, _ := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricLatency, Size: size})
		s, _ := cni.Measure(cni.NICStandard, cni.Probe{Metric: cni.MetricLatency, Size: size})
		fmt.Printf("latency %5dB: cni %6.1f us, standard %6.1f us (-%.0f%%)\n",
			size, c/1000, s/1000, 100*(s-c)/s)
	}
}
