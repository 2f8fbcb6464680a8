package experiments

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/workload"
)

// This file produces FS1, an experiment beyond the paper's figures:
// throughput–latency curves for a request-serving workload. Open-loop
// Poisson clients drive one server node at rising offered load; the
// server admits requests against its ADC free-queue depth (Delay
// policy, so nothing is shed and queueing shows up where it belongs —
// in the tail). The paper's claim, restated for serving: because the
// CNI notifies by polling under load, dequeues by popping a user-space
// queue, and answers hot responses straight from the Message Cache,
// the per-request host cost stays near the ADC enqueue/dequeue cost,
// while the standard interface pays an interrupt plus the kernel
// receive and send paths per request — so as offered load rises the
// standard interface saturates first and its p99 explodes while the
// CNI's curve stays flat. FS1 plots sustained throughput, p50 and p99
// versus offered load for both interfaces, and panics unless the CNI
// sustains strictly more at strictly lower p99 at the top rate.

// FS1Rates is the per-client offered-load sweep, requests/second.
var FS1Rates = []float64{2500, 5000, 10000, 20000}

// fs1Spec fixes the workload shape of one FS1 point: everything but
// the offered rate is constant across the sweep.
func fs1Spec(o Options, rate float64) workload.Spec {
	s := workload.Spec{
		Servers:   1,
		Clients:   4,
		Seed:      7,
		Open:      true,
		Poisson:   true,
		Rate:      rate,
		Requests:  400,
		ReqBytes:  128,
		RespBytes: 1024,
		Service:   1000,
		WorkQueue: 64,
		FreeBufs:  64,
		Policy:    rpc.Delay,
	}
	if o.Quick {
		s.Clients = 2
		s.Requests = 150
	}
	return s
}

// fs1Run is the outcome of one FS1 point.
type fs1Run struct {
	Sustained float64
	P50, P99  sim.Time
}

// fs1Point submits one serving run: the workload executes under the
// given interface at the given per-client rate, verifies the Delay
// policy completed every request, and reports sustained throughput
// plus exact percentiles.
func (o Options) fs1Point(kind config.NICKind, rate float64) Future[fs1Run] {
	cfg := config.ForNIC(kind)
	cfg.SimShards = o.Shards
	s := fs1Spec(o, rate)
	key := pointKey{cfg: cfg, n: s.Servers + s.Clients,
		what: fmt.Sprintf("fs1/%gx%d/%d", rate, s.Clients, s.Requests)}
	return submitPoint(o, key, func() fs1Run {
		c := cfg
		rep := workload.Run(&c, s)
		if want := uint64(s.Clients * s.Requests); rep.Stats.Completed != want {
			panic(fmt.Sprintf("experiments: FS1 on %v at %g req/s completed %d of %d under the Delay policy",
				kind, rate, rep.Stats.Completed, want))
		}
		return fs1Run{Sustained: rep.Sustained, P50: rep.P50, P99: rep.P99}
	})
}

// FigureRPC produces FS1: sustained throughput, p50 and p99 latency
// versus total offered load for every interface.
func FigureRPC(o Options) Figure {
	f := Figure{ID: "FS1",
		Title:  "Request serving: sustained throughput and latency percentiles vs offered load",
		XLabel: "Offered load (req/s)", YLabel: "req/s / latency (cycles)"}
	// Plan every point of every interface up front so the whole figure
	// fans across the worker pool at once.
	points := make([][]Future[fs1Run], len(sweepKinds))
	for i, kind := range sweepKinds {
		for _, rate := range FS1Rates {
			points[i] = append(points[i], o.fs1Point(kind, rate))
		}
	}
	clients := fs1Spec(o, 0).Clients
	runs := make([][]fs1Run, len(sweepKinds))
	for i, kind := range sweepKinds {
		label := kind.Display()
		tput := Series{Label: label + "-throughput"}
		p50 := Series{Label: label + "-p50"}
		p99 := Series{Label: label + "-p99"}
		for j, rate := range FS1Rates {
			r := points[i][j].Wait()
			runs[i] = append(runs[i], r)
			offered := rate * float64(clients)
			tput.X = append(tput.X, offered)
			tput.Y = append(tput.Y, r.Sustained)
			p50.X = append(p50.X, offered)
			p50.Y = append(p50.Y, float64(r.P50))
			p99.X = append(p99.X, offered)
			p99.Y = append(p99.Y, float64(r.P99))
		}
		f.Series = append(f.Series, tput, p50, p99)
	}
	// The acceptance property of the serving study: at the highest
	// offered load the CNI (first sweep kind) sustains strictly more at
	// a strictly lower p99 than the standard interface (last sweep
	// kind).
	top := len(FS1Rates) - 1
	cni, std := runs[0][top], runs[len(runs)-1][top]
	if cni.Sustained <= std.Sustained || cni.P99 >= std.P99 {
		panic(fmt.Sprintf("experiments: FS1 at top load: CNI %.0f req/s p99 %d vs standard %.0f req/s p99 %d — CNI must sustain more at lower p99",
			cni.Sustained, cni.P99, std.Sustained, std.P99))
	}
	return f
}
