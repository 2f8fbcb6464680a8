package atm

// Golden parity: the route-walking fabric on topo=single must
// reproduce the pre-topology single-switch model bit-identically. The
// reference below is the original closed-form arithmetic — freeAt
// bookkeeping in place of sim.Resource, the original per-source-link
// fault injector — and seeded random traffic must produce identical
// delivery times, identical port-wait totals and identical fault
// verdicts. This is the contract that keeps every pre-topology
// artifact byte-identical.

import (
	"slices"
	"sort"
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// refFabric is the original single-switch model in closed form.
type refFabric struct {
	cfg      *config.Config
	txFree   []sim.Time
	portFree []sim.Time
	rng      []*sim.RNG // per source link, old injector layout

	portWaits sim.Time
	faults    FaultStats
}

func newRef(cfg *config.Config, n int) *refFabric {
	r := &refFabric{cfg: cfg, txFree: make([]sim.Time, n), portFree: make([]sim.Time, n)}
	if cfg.FaultsEnabled() {
		for i := 0; i < n; i++ {
			r.rng = append(r.rng, sim.NewRNG(cfg.FaultSeed*0x9e3779b97f4a7c15+uint64(i)+1))
		}
	}
	return r
}

func (r *refFabric) headCell() sim.Time {
	bits := int64(r.cfg.CellBytes) * 8
	ns := (bits*1000 + r.cfg.LinkMbps - 1) / r.cfg.LinkMbps
	return r.cfg.NSToCycles(ns)
}

func use(free *sim.Time, at, dur sim.Time) (sim.Time, sim.Time) {
	start := at
	if *free > start {
		start = *free
	}
	*free = start + dur
	return start, *free
}

// send returns the times at which one packet reaches its destination:
// none when it is lost, two when its cell train is duplicated.
func (r *refFabric) send(at sim.Time, src, dst, bytes int) []sim.Time {
	ser := r.cfg.SerializeCycles(bytes)
	cells := r.cfg.Cells(bytes)
	if src == dst {
		return []sim.Time{at + r.headCell()}
	}
	txStart, _ := use(&r.txFree[src], at, ser)
	headAt := txStart + r.headCell() +
		r.cfg.NSToCycles(r.cfg.WirePropNS) +
		r.cfg.NSToCycles(r.cfg.SwitchLatencyNS)
	portStart, portEnd := use(&r.portFree[dst], headAt, ser)
	r.portWaits += portStart - headAt
	deliver := portEnd + r.cfg.NSToCycles(r.cfg.WirePropNS)
	if r.rng == nil {
		return []sim.Time{deliver}
	}
	// The original per-packet judgement, verbatim.
	rng := r.rng[src]
	var lost, damaged, duped bool
	var delay sim.Time
	for i := 0; i < cells; i++ {
		if r.cfg.CellLossRate > 0 && rng.Float64() < r.cfg.CellLossRate {
			r.faults.CellsDropped++
			if i == cells-1 {
				lost = true
			} else {
				damaged = true
			}
			continue
		}
		if r.cfg.CellCorruptRate > 0 && rng.Float64() < r.cfg.CellCorruptRate {
			r.faults.CellsCorrupted++
			damaged = true
		}
		if r.cfg.CellDupRate > 0 && rng.Float64() < r.cfg.CellDupRate {
			r.faults.CellsDuped++
			duped = true
		}
	}
	if r.cfg.ReorderWindow > 0 {
		if slip := rng.Intn(r.cfg.ReorderWindow + 1); slip > 0 {
			delay = sim.Time(slip) * r.headCell()
			r.faults.PacketsDelayed++
		}
	}
	if lost {
		r.faults.PacketsLost++
		return nil
	}
	deliver += delay
	if damaged {
		r.faults.PacketsDamaged++
	}
	if duped {
		r.faults.PacketsDuped++
		return []sim.Time{deliver, deliver + ser}
	}
	return []sim.Time{deliver}
}

// runParity sends seeded random traffic, each packet from an event at
// its launch time, and compares the times the receive handlers see
// with the reference. The fabric walks sends in canonical (send time,
// source node) order, so the reference takes equal-time sends in that
// order too.
func runParity(t *testing.T, cfg config.Config, trafficSeed uint64) {
	t.Helper()
	const n, messages = 16, 4000
	k := sim.NewKernel()
	nw := mustNew(k, &cfg, n)
	if nw.Topology().Kind() != config.TopoSingle {
		t.Fatalf("default topology = %q, want single", nw.Topology().Kind())
	}
	got := make([][]sim.Time, messages)
	for i := 0; i < n; i++ {
		nw.Attach(i, func(p *Packet, at sim.Time) { got[p.VCI] = append(got[p.VCI], at) })
	}

	type message struct {
		at         sim.Time
		src, bytes int
		pkt        *Packet
	}
	msgs := make([]message, messages)
	rng := sim.NewRNG(trafficSeed)
	var at sim.Time
	for m := range msgs {
		at += sim.Time(rng.Intn(300))
		src := rng.Intn(n)
		dst := rng.Intn(n)
		bytes := 1 + rng.Intn(6000)
		pkt := &Packet{Src: src, Dst: dst, VCI: uint32(m), Size: bytes}
		msgs[m] = message{at: at, src: src, bytes: bytes, pkt: pkt}
		launch := at
		k.At(launch, func() { nw.Send(launch, pkt) })
	}
	k.Run()

	ref := newRef(&cfg, n)
	order := make([]int, messages)
	for m := range order {
		order[m] = m
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := msgs[order[i]], msgs[order[j]]
		return a.at < b.at || a.at == b.at && a.src < b.src
	})
	for _, m := range order {
		mm := msgs[m]
		want := ref.send(mm.at, mm.src, mm.pkt.Dst, mm.bytes)
		if !slices.Equal(got[m], want) {
			t.Fatalf("message %d (%d->%d, %d B at %d): delivered at %v, reference %v",
				m, mm.src, mm.pkt.Dst, mm.bytes, mm.at, got[m], want)
		}
	}
	if nw.Stats.PortWaits != ref.portWaits {
		t.Fatalf("PortWaits %d, reference %d", nw.Stats.PortWaits, ref.portWaits)
	}
	if nw.Stats.LinkWaits != 0 {
		t.Fatalf("single topology accumulated LinkWaits %d", nw.Stats.LinkWaits)
	}
	if nw.Stats.Faults != ref.faults {
		t.Fatalf("fault stats %+v, reference %+v", nw.Stats.Faults, ref.faults)
	}
}

func TestSingleTopologyParityLossless(t *testing.T) {
	runParity(t, config.Default(), 11)
}

func TestSingleTopologyParityFaulty(t *testing.T) {
	cfg := config.Default()
	cfg.CellLossRate = 0.002
	cfg.CellCorruptRate = 0.001
	cfg.CellDupRate = 0.001
	cfg.ReorderWindow = 3
	cfg.FaultSeed = 42
	runParity(t, cfg, 17)
}
