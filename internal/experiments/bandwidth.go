package experiments

import (
	"cni/internal/config"
	"cni/internal/msgpass"
	"cni/internal/sim"
)

// FigureBandwidth produces FB1, an artifact beyond the paper's
// figures: achieved application-to-application bandwidth versus
// message size for all three interfaces. At page-sized messages every
// interface approaches the 622 Mb/s link rate; at small messages the
// per-message host costs separate them — the kernel send/receive paths
// and interrupts cap the standard interface, the OSIRIS baseline's
// interrupts cap it below the CNI, and the CNI's ADC enqueue/dequeue
// plus polling keep its curve highest.
func FigureBandwidth(o Options) Figure {
	f := Figure{ID: "FB1",
		Title:  "Streaming bandwidth for the CNI, OSIRIS and standard network interface",
		XLabel: "Message (bytes)", YLabel: "Bandwidth (MB/s)"}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		sizes = []int{64, 256, 1024, 4096}
	}
	futs := make([][]Future[float64], len(sweepKinds))
	for i, kind := range sweepKinds {
		futs[i] = make([]Future[float64], len(sizes))
		for j, size := range sizes {
			futs[i][j] = o.probePoint(kind, Probe{Metric: MetricBandwidth, Size: size})
		}
	}
	for i, kind := range sweepKinds {
		s := Series{Label: kind.Display()}
		for j, size := range sizes {
			s.X = append(s.X, float64(size))
			s.Y = append(s.Y, futs[i][j].Wait())
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// measureBandwidth streams messages of the given size from node 0 to
// node 1 (same buffer every time, so the CNI's Message Cache is hot)
// and returns the achieved application-to-application bandwidth in
// megabytes per second of simulated time.
//
// The paper's premise (Section 1) is that contemporary interfaces
// already delivered high bandwidth and latency was the open problem:
// at page-sized messages both interfaces approach the 622 Mb/s link
// rate, while at small messages the standard interface's per-message
// kernel and interrupt costs cap its throughput well below the CNI's.
func measureBandwidth(cfg config.Config, size int) float64 {
	const messages = 64
	f := mustFabric(&cfg, 2)
	var start, end sim.Time
	f.Run(func(ep *msgpass.Endpoint) {
		if ep.Node() == 0 {
			// Warm the transmit path, then stream.
			ep.Send(1, 1, size)
			ep.Recv(3)
			ep.Proc().Sync()
			start = ep.Proc().Local()
			for i := 0; i < messages; i++ {
				ep.Send(1, 2, size)
			}
			ep.Recv(4) // receiver's completion signal
		} else {
			ep.Recv(1)
			ep.Send(0, 3, 0)
			for i := 0; i < messages; i++ {
				ep.Recv(2)
			}
			ep.Proc().Sync()
			end = ep.Proc().Local()
			ep.Send(0, 4, 0)
		}
	})
	bytes := float64(messages * size)
	seconds := float64(cfg.CyclesToNS(end-start)) / 1e9
	return bytes / seconds / 1e6
}
