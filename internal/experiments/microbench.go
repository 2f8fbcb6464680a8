package experiments

import (
	"fmt"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/nic"
	"cni/internal/sim"
)

// This file reproduces Figure 14: best-possible node-to-node latency
// of the CNI (100% network cache hit ratio) versus the standard
// interface, as a function of message size. The measurement is
// application to application: from the moment the sending program
// decides to transmit to the moment the receiving program holds the
// data.

const microOp = 0x4242

// measureLatency is the measurement proper: the warmed node-to-node
// latency in nanoseconds of one size-byte message on a two-node
// cluster. Node 0 sends the same buffer several times first, so the
// CNI's Message Cache is bound (the "assuming a 100% network cache hit
// ratio" condition of Section 3.3) and the arrivals are frequent
// enough that the hybrid receive path is in polling mode; the last
// round is timed. Node 1's processor has nothing to run: the receiving
// application is the handler plus its receive-queue pop.
func measureLatency(cfg config.Config, size int) int64 {
	c, err := cluster.New(&cfg, 2, nil)
	if err != nil {
		panic(err)
	}
	src, dst := c.Nodes[0].Board, c.Nodes[1].Board
	src.MapPages(0x10000, 1<<16)
	dst.MapPages(0x40000, 1<<16)

	var sent []sim.Time
	var got []sim.Time
	// The receiving application pays its receive-queue pop (zero on a
	// kernel-mediated board, where the kernel hands the data over).
	recvCost := dst.RecvDequeueCost()
	dst.Register(microOp, false, func(at sim.Time, m *nic.Message) {
		got = append(got, at+recvCost)
	})

	const rounds = 5
	// Rounds are spaced far enough apart that links, ports and DMA
	// engines are idle again; the measured round sees no queueing.
	gap := cfg.NSToCycles(500_000)
	c.Run(func(w *dsm.Worker) {
		if w.Node() != 0 {
			return
		}
		p := w.Proc()
		for i := 0; i < rounds; i++ {
			p.Sync()
			sent = append(sent, p.Local())
			m := &nic.Message{
				From: 0, To: 1, Op: microOp,
				Size:    nic.HeaderBytes + size,
				VAddr:   0x10000,
				CacheTx: true,
			}
			if size > 0 {
				m.DeliverVAddr = 0x40000
				m.DeliverBytes = size
			}
			src.Send(p, m)
			p.Advance(gap)
		}
	})
	if len(got) != rounds {
		panic(fmt.Sprintf("experiments: %d of %d pings arrived", len(got), rounds))
	}
	// The last round is fully warmed.
	return cfg.CyclesToNS(got[rounds-1] - sent[rounds-1])
}

// FigureLatency reproduces Figure 14, extended with the OSIRIS-class
// baseline as the paper's natural third point of comparison.
func FigureLatency(o Options) Figure {
	f := Figure{ID: "F14", Title: "Node-to-node latency for the CNI, OSIRIS and standard network interface",
		XLabel: "Message (bytes)", YLabel: "Latency (us)"}
	step := 256
	if o.Quick {
		step = 1024
	}
	var sizes []int
	for size := 0; size <= 4096; size += step {
		sizes = append(sizes, size)
	}
	futs := make([][]Future[float64], len(sweepKinds))
	for i, kind := range sweepKinds {
		futs[i] = make([]Future[float64], len(sizes))
		for j, size := range sizes {
			futs[i][j] = o.probePoint(kind, Probe{Metric: MetricLatency, Size: size})
		}
	}
	for i, kind := range sweepKinds {
		s := Series{Label: kind.Display()}
		for j, size := range sizes {
			s.X = append(s.X, float64(size))
			s.Y = append(s.Y, futs[i][j].Wait()/1000)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// LatencyReduction reports the CNI's percentage latency reduction over
// the standard interface at the given message size (the paper's
// headline is ~33% at a 4 KB page).
func LatencyReduction(size int) float64 {
	p := Probe{Metric: MetricLatency, Size: size}
	c := Options{}.probePoint(config.NICCNI, p).Wait()
	s := Options{}.probePoint(config.NICStandard, p).Wait()
	return 100 * (s - c) / s
}
