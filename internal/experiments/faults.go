package experiments

import (
	"fmt"

	"cni/internal/apps"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/nic"
	"cni/internal/sim"
)

// This file produces FR1, an experiment beyond the paper's figures:
// resilience of the two interfaces under deterministic cell loss. The
// fabric drops cells at rates 0, 1e-6 .. 1e-3; both interfaces run the
// identical go-back-N recovery protocol, but the CNI runs it in board
// firmware (retained PDUs, no DMA on retransmit, no host involvement)
// while the standard interface runs it in the kernel (host timer
// interrupt, kernel resend path, fresh DMA per retransmit). FR1 plots,
// per interface, the slowdown of a round trip, a Jacobi DSM run and an
// all-reduce stream relative to the lossless fabric, plus the raw
// retransmit counts of a fixed message-pumping stress leg — and it
// panics unless every workload still produces its lossless results.
//
// The lossless (rate 0) legs are keyed identically to the baselines
// other artifacts measure — F14's 4 KB latency, FC1's 4-node
// all-reduce — so under a shared Runner FR1's re-verification of the
// lossless fabric costs nothing extra.

// FaultRates is the cell-loss sweep of FR1.
var FaultRates = []float64{0, 1e-6, 1e-5, 1e-4, 1e-3}

// faultCfg arms the injector at the given cell-loss rate.
func faultCfg(rate float64) func(*config.Config) {
	return func(c *config.Config) {
		c.FaultSeed = 1
		c.CellLossRate = rate
	}
}

// fr1Run is the outcome of one FR1 Jacobi point.
type fr1Run struct {
	Time sim.Time
	Rel  nic.RelStats
}

// fr1JacobiPoint submits a Jacobi-under-loss run: the workload runs,
// verifies its numerical result against the sequential reference, and
// reports the run time plus the cluster-wide reliability counters.
func (o Options) fr1JacobiPoint(kind config.NICKind, rate float64) Future[fr1Run] {
	size, iters, nodes := 128, 6, 8
	if o.Quick {
		size, iters, nodes = 64, 4, 4
	}
	cfg := config.ForNIC(kind)
	faultCfg(rate)(&cfg)
	cfg.SimShards = o.Shards // clamped (DSM pages), keeps the clamp path hot
	key := pointKey{cfg: cfg, n: nodes, what: fmt.Sprintf("fr1jacobi/%dx%d", size, iters)}
	return submitPoint(o, key, func() fr1Run {
		c := cfg
		app := apps.NewJacobi(size, iters)
		cl, res := apps.MustExecute(&c, nodes, app)
		if err := app.Verify(cl); err != nil {
			panic(fmt.Sprintf("experiments: FR1 jacobi wrong under %v loss on %v: %v", rate, kind, err))
		}
		return fr1Run{Time: res.Time, Rel: res.Rel}
	})
}

// fr1StressPoint submits the stress leg: node 0's processor pumps
// enough sequenced messages to node 1 that the expected number of
// injected cell faults is well above zero at every nonzero rate — the
// leg that proves the retransmit machinery actually fires even at
// 1e-6 — and the leg checks exactly-once in-order delivery. The pump
// pays its interface's host costs, interrupts and retransmit timers
// included.
func (o Options) fr1StressPoint(kind config.NICKind, rate float64) Future[nic.RelStats] {
	const size = 8192
	cfg := config.ForNIC(kind)
	faultCfg(rate)(&cfg)
	cells := float64(cfg.Cells(size))
	wantFaults := 12.0
	if o.Quick {
		wantFaults = 6
	}
	n := 100
	if rate > 0 {
		n = int(wantFaults/(rate*cells)) + 1
		if n < 100 {
			n = 100
		}
		if n > 120_000 {
			n = 120_000
		}
	}
	cfg.SimShards = o.Shards
	key := pointKey{cfg: cfg, n: 2, what: fmt.Sprintf("fr1stress/%d", n)}
	return submitPoint(o, key, func() nic.RelStats { return fr1Stress(cfg, kind, rate, n) })
}

func fr1Stress(cfg config.Config, kind config.NICKind, rate float64, n int) nic.RelStats {
	const size = 8192
	c := mustCluster(&cfg, 2)
	src, dst := c.Nodes[0].Board, c.Nodes[1].Board
	delivered := 0
	ordered := true
	dst.Register(microOp, true, func(at sim.Time, m *nic.Message) {
		if m.Aux != uint32(delivered) {
			ordered = false
		}
		delivered++
	})
	pace := cfg.SerializeCycles(size)
	res := c.Run(func(w *dsm.Worker) {
		if w.Node() != 0 {
			return
		}
		p := w.Proc()
		for i := 0; i < n; i++ {
			src.Send(p, &nic.Message{From: 0, To: 1, Op: microOp, Aux: uint32(i), Size: size})
			p.Advance(pace)
			p.Sync()
		}
	})
	if delivered != n || !ordered {
		panic(fmt.Sprintf("experiments: FR1 stress on %v at %v loss: %d/%d delivered, ordered=%v",
			kind, rate, delivered, n, ordered))
	}
	if rate > 0 && res.Rel.Retransmits == 0 {
		panic(fmt.Sprintf("experiments: FR1 stress on %v at %v loss injected faults but retransmitted nothing (faults: %+v)",
			kind, rate, res.Net.Faults))
	}
	return res.Rel
}

// FigureFaults produces FR1: per-interface slowdown of round-trip
// latency, Jacobi completion and all-reduce latency versus cell-loss
// rate, plus the stress leg's retransmit counts.
func FigureFaults(o Options) Figure {
	f := Figure{ID: "FR1",
		Title:  "Resilience under cell loss: slowdown vs loss rate (go-back-N on board vs on host)",
		XLabel: "Cell loss rate", YLabel: "Slowdown vs lossless / retransmits"}
	// Plan every point of every interface up front so the whole figure
	// fans across the worker pool at once.
	type ratePoints struct {
		lat    Future[float64]
		jac    Future[fr1Run]
		red    Future[float64]
		stress Future[nic.RelStats]
	}
	type kindPoints struct {
		rtt0  Future[float64]
		jac0  Future[fr1Run]
		red0  Future[float64]
		rates []ratePoints
	}
	latProbe := func(tweak func(*config.Config)) Probe {
		return Probe{Metric: MetricLatency, Size: 4096, Tweak: tweak}
	}
	redProbe := func(tweak func(*config.Config)) Probe {
		return Probe{Metric: MetricCollective, Nodes: 4, Op: "allreduce", Tweak: tweak}
	}
	points := make([]kindPoints, len(sweepKinds))
	for i, kind := range sweepKinds {
		points[i] = kindPoints{
			rtt0: o.probePoint(kind, latProbe(nil)),
			jac0: o.fr1JacobiPoint(kind, 0),
			red0: o.probePoint(kind, redProbe(nil)),
		}
		for _, rate := range FaultRates {
			points[i].rates = append(points[i].rates, ratePoints{
				lat:    o.probePoint(kind, latProbe(faultCfg(rate))),
				jac:    o.fr1JacobiPoint(kind, rate),
				red:    o.probePoint(kind, redProbe(faultCfg(rate))),
				stress: o.fr1StressPoint(kind, rate),
			})
		}
	}
	for i, kind := range sweepKinds {
		label := kind.Display()
		rtt := Series{Label: label + "-rtt-slowdown"}
		jac := Series{Label: label + "-jacobi-slowdown"}
		red := Series{Label: label + "-allreduce-slowdown"}
		rtx := Series{Label: label + "-retransmits"}

		rtt0 := points[i].rtt0.Wait()
		jac0 := points[i].jac0.Wait().Time
		red0 := points[i].red0.Wait()
		for j, rate := range FaultRates {
			pt := points[i].rates[j]
			lat := pt.lat.Wait()
			jr := pt.jac.Wait()
			rl := pt.red.Wait()
			srel := pt.stress.Wait()
			if rate == 0 && (jr.Rel != (nic.RelStats{}) || srel.Retransmits != 0) {
				panic("experiments: FR1 reliability counters moved on the lossless fabric")
			}

			rtt.X = append(rtt.X, rate)
			rtt.Y = append(rtt.Y, lat/rtt0)
			jac.X = append(jac.X, rate)
			jac.Y = append(jac.Y, float64(jr.Time)/float64(jac0))
			red.X = append(red.X, rate)
			red.Y = append(red.Y, rl/red0)
			rtx.X = append(rtx.X, rate)
			rtx.Y = append(rtx.Y, float64(srel.Retransmits))
		}
		f.Series = append(f.Series, rtt, jac, red, rtx)
	}
	return f
}
