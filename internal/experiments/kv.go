package experiments

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
	"cni/internal/workload"
)

// This file produces FS2, the multi-tenant key-value serving study:
// what the CNI's board-side machinery buys a memcached-style service.
// Two tenants share each server under an aggregated open-loop arrival
// stream — a well-behaved tenant at modest load and an aggressor
// offering several times the server's capacity, half of it SETs so the
// host path cannot be cached away. The sweep crosses the three
// interfaces with Zipf key skew s ∈ {0.9, 1.1, 1.3} and tenant
// isolation on/off, and reports:
//
//   - victim tail latency and total goodput with isolation (per-tenant
//     device channels, token buckets, strict/weighted scheduling at the
//     enqueue-time protection point) versus the shared-FIFO ablation;
//   - GET latency split by who served it: on the CNI, repeat GETs whose
//     responses are pinned in the Message Cache are answered by the
//     board filter with no DMA, no interrupt and no host involvement,
//     so their tail sits below the host-served tail; OSIRIS and the
//     standard interface always pay the host path.
//
// Acceptance (panics otherwise): on the CNI the board serves a
// non-trivial share of GETs and its hit tail beats the host tail at
// every skew; isolation never lowers any interface's victim on-time
// fraction; and on the CNI isolation must answer every victim request
// within its deadline with a p99 at least 2x under the shared-FIFO
// ablation. OSIRIS and the standard interface get no on-time
// guarantee: the flood's per-message host cost saturates their hosts
// whether or not the enqueue-time scheduler is fair, which is exactly
// the overhead argument the CNI makes.

// FS2Skews is the Zipf key-popularity sweep.
var FS2Skews = []float64{0.9, 1.1, 1.3}

// fs2Spec fixes the workload shape of one FS2 point: everything but
// the interface, the skew and the isolation switch is constant.
func fs2Spec(o Options, s float64, iso bool) workload.KVSpec {
	sp := workload.KVSpec{
		Servers: 1,
		Clients: 2,
		Seed:    9,
		Keys:    512,
		ZipfS:   s,

		SetBytes:   64,
		ValueBytes: 512,
		// Responses count toward goodput only when they arrive within
		// 100k cycles (~0.6 ms); under the shared-FIFO ablation the
		// backlog pushes most of them past it.
		Deadline: 100000,

		Tenants: []workload.KVTenant{
			// The well-behaved tenant: uncontracted rate, top priority.
			{Class: tenant.Class{Name: "victim", Priority: 0},
				Rate: 4000, Requests: 60, GetFrac: 1.0},
			// The aggressor: several times the server's capacity, half
			// SETs; its contract caps it at 5000 req/s when isolation is
			// on.
			{Class: tenant.Class{Name: "aggressor", Priority: 1, Rate: 5000, Burst: 16},
				Rate: 40000, Requests: 500, GetFrac: 0.5},
		},
		Isolation: iso,

		ServiceGet: 2000,
		ServiceSet: 2500,
		WorkQueue:  64,
		FreeBufs:   32,
		Policy:     rpc.Delay,
	}
	if o.Quick {
		sp.Tenants[0].Requests = 30
		sp.Tenants[1].Requests = 250
	}
	return sp
}

// fs2Run is the outcome of one FS2 point.
type fs2Run struct {
	VictimP99    sim.Time
	VictimOnTime float64 // fraction of victim requests answered by deadline
	Goodput      float64

	HitRatio         float64
	HitP99, HostP99  sim.Time
	Hits, HostServed uint64
}

// fs2Point submits one serving run at (kind, skew, isolation),
// verifying every victim request was either answered or shed by
// deadline expiry (the victim is never throttled — it has no rate
// contract — and the Delay policy rejects nothing).
func (o Options) fs2Point(kind config.NICKind, s float64, iso bool) Future[fs2Run] {
	cfg := config.ForNIC(kind)
	cfg.SimShards = o.Shards
	sp := fs2Spec(o, s, iso)
	key := pointKey{cfg: cfg, n: sp.Servers + sp.Clients,
		what: fmt.Sprintf("fs2/s%g/iso%v", s, iso)}
	return submitPoint(o, key, func() fs2Run {
		c := cfg
		rep := workload.RunKV(&c, sp)
		wantVictim := uint64(sp.Clients * sp.Tenants[0].Requests)
		vt := rep.Tenants[0]
		if vt.Completed+vt.Expired != wantVictim || vt.Throttled != 0 || vt.Rejected != 0 {
			panic(fmt.Sprintf("experiments: FS2 on %v s=%g iso=%v: victim outcomes %+v do not cover %d requests",
				kind, s, iso, vt, wantVictim))
		}
		return fs2Run{
			VictimP99:    rep.TenantLat[0].Percentile(99),
			VictimOnTime: float64(vt.OnTime) / float64(wantVictim),
			Goodput:      rep.Goodput,
			HitRatio:     rep.HitRatio,
			HitP99:       rep.HitLat.Percentile(99),
			HostP99:      rep.HostLat.Percentile(99),
			Hits:         rep.Stats.HitLat.Count,
			HostServed:   rep.Stats.HostLat.Count,
		}
	})
}

// FigureKV produces FS2: victim p99 and goodput with isolation on/off,
// and the board-served vs host-served GET tail, versus Zipf skew for
// every interface.
func FigureKV(o Options) Figure {
	f := Figure{ID: "FS2",
		Title:  "Multi-tenant KV serving: NIC response cache and tenant isolation under overload",
		XLabel: "Zipf skew s", YLabel: "latency (cycles) / req/s / ratio"}
	type cell struct{ iso, shared Future[fs2Run] }
	points := make([][]cell, len(sweepKinds))
	for i, kind := range sweepKinds {
		for _, s := range FS2Skews {
			points[i] = append(points[i], cell{
				iso:    o.fs2Point(kind, s, true),
				shared: o.fs2Point(kind, s, false),
			})
		}
	}
	for i, kind := range sweepKinds {
		label := kind.Display()
		visoP99 := Series{Label: label + "-victim-p99-isolated"}
		vshP99 := Series{Label: label + "-victim-p99-shared"}
		vIsoOT := Series{Label: label + "-victim-ontime-isolated"}
		vShOT := Series{Label: label + "-victim-ontime-shared"}
		gIso := Series{Label: label + "-goodput-isolated"}
		gSh := Series{Label: label + "-goodput-shared"}
		hostP99 := Series{Label: label + "-get-host-p99"}
		hitP99 := Series{Label: label + "-get-hit-p99"}
		hitRatio := Series{Label: label + "-hit-ratio"}
		for j, s := range FS2Skews {
			iso := points[i][j].iso.Wait()
			shared := points[i][j].shared.Wait()
			visoP99.X = append(visoP99.X, s)
			visoP99.Y = append(visoP99.Y, float64(iso.VictimP99))
			vshP99.X = append(vshP99.X, s)
			vshP99.Y = append(vshP99.Y, float64(shared.VictimP99))
			vIsoOT.X = append(vIsoOT.X, s)
			vIsoOT.Y = append(vIsoOT.Y, iso.VictimOnTime)
			vShOT.X = append(vShOT.X, s)
			vShOT.Y = append(vShOT.Y, shared.VictimOnTime)
			gIso.X = append(gIso.X, s)
			gIso.Y = append(gIso.Y, iso.Goodput)
			gSh.X = append(gSh.X, s)
			gSh.Y = append(gSh.Y, shared.Goodput)
			hostP99.X = append(hostP99.X, s)
			hostP99.Y = append(hostP99.Y, float64(iso.HostP99))
			hitP99.X = append(hitP99.X, s)
			hitP99.Y = append(hitP99.Y, float64(iso.HitP99))
			hitRatio.X = append(hitRatio.X, s)
			hitRatio.Y = append(hitRatio.Y, iso.HitRatio)

			// Acceptance: isolation must never leave the victim worse off,
			// and on the CNI it must actually deliver — every victim
			// request on time and the tail 2x under the shared ablation.
			// OSIRIS and the standard interface get no such guarantee:
			// the flood's per-message host cost saturates them whether or
			// not the enqueue-time scheduler is fair, which is the point.
			if iso.VictimOnTime < shared.VictimOnTime {
				panic(fmt.Sprintf("experiments: FS2 on %v s=%g: victim on-time fraction %.3f with isolation below %.3f without",
					kind, s, iso.VictimOnTime, shared.VictimOnTime))
			}
			if kind == config.NICCNI {
				if 2*iso.VictimP99 >= shared.VictimP99 {
					panic(fmt.Sprintf("experiments: FS2 CNI s=%g: isolated victim p99 %d not 2x below shared %d",
						s, iso.VictimP99, shared.VictimP99))
				}
				if iso.VictimOnTime != 1 {
					panic(fmt.Sprintf("experiments: FS2 CNI s=%g: isolation served only %.3f of the victim's requests on time",
						s, iso.VictimOnTime))
				}
				if shared.VictimOnTime >= iso.VictimOnTime {
					panic(fmt.Sprintf("experiments: FS2 CNI s=%g: shared-FIFO victim on-time fraction %.3f not below isolated %.3f",
						s, shared.VictimOnTime, iso.VictimOnTime))
				}
				if iso.Hits == 0 || iso.HostServed == 0 {
					panic(fmt.Sprintf("experiments: FS2 CNI s=%g: hit/host GET split %d/%d — the response cache never engaged",
						s, iso.Hits, iso.HostServed))
				}
				if iso.HitP99 >= iso.HostP99 {
					panic(fmt.Sprintf("experiments: FS2 CNI s=%g: board-served p99 %d not below host-served p99 %d",
						s, iso.HitP99, iso.HostP99))
				}
			} else if iso.Hits != 0 {
				panic(fmt.Sprintf("experiments: FS2 on %v s=%g: %d board-served GETs on an interface with no board cache",
					kind, s, iso.Hits))
			}
		}
		f.Series = append(f.Series, visoP99, vshP99, vIsoOT, vShOT, gIso, gSh, hostP99)
		if kind == config.NICCNI {
			f.Series = append(f.Series, hitP99, hitRatio)
		}
	}
	return f
}
