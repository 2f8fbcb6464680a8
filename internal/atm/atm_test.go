package atm

import (
	"testing"
	"testing/quick"

	"cni/internal/config"
	"cni/internal/sim"
)

func build(t *testing.T, n int) (*sim.Kernel, *Network, *config.Config) {
	t.Helper()
	k := sim.NewKernel()
	cfg := config.Default()
	nw := mustNew(k, &cfg, n)
	return k, nw, &cfg
}

func TestSendDeliversOnce(t *testing.T) {
	k, nw, _ := build(t, 4)
	var got []*Packet
	var at sim.Time
	for i := 0; i < 4; i++ {
		i := i
		nw.Attach(i, func(p *Packet, t sim.Time) {
			if i != p.Dst {
				panic("delivered to wrong node")
			}
			got = append(got, p)
			at = t
		})
	}
	pkt := &Packet{Src: 0, Dst: 2, Size: 100}
	nw.Send(0, pkt)
	k.Run()
	if len(got) != 1 || got[0] != pkt {
		t.Fatalf("delivered %d packets", len(got))
	}
	// Uncontended, the last cell lands one lookahead plus the
	// serialization of the rest of the packet after the launch.
	if want := nw.Lookahead() + nw.cfg.SerializeCycles(100); at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
}

// sendOne sends one packet from node 0 to node 1 of a fresh two-node
// fabric at time 0 and returns the time the receive handler saw it,
// with the fabric's stats.
func sendOne(cfg config.Config, size int) (sim.Time, Stats) {
	k := sim.NewKernel()
	nw := mustNew(k, &cfg, 2)
	var at sim.Time
	nw.Attach(0, func(*Packet, sim.Time) {})
	nw.Attach(1, func(_ *Packet, t sim.Time) { at = t })
	nw.Send(0, &Packet{Src: 0, Dst: 1, Size: size})
	k.Run()
	nw.Finish()
	return at, nw.Stats
}

func TestLatencyGrowsWithSize(t *testing.T) {
	small, _ := sendOne(config.Default(), 48)
	large, _ := sendOne(config.Default(), 4096)
	if large <= small {
		t.Fatalf("4KB latency %d <= 48B latency %d", large, small)
	}
	// 4 KB is 86 cells vs 1: the gap must be roughly 85 cell times.
	if large < small+80*683/6 { // ~85 cells * 0.68us each, loosely
		t.Fatalf("4KB latency %d implausibly close to 48B latency %d", large, small)
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	// End-to-end latency of an uncontended message must be about one
	// serialization time plus constants, not two.
	cfg := config.Default()
	d, _ := sendOne(cfg, 4096)
	ser := cfg.SerializeCycles(4096)
	if d > ser+ser/4 {
		t.Fatalf("delivery %d cycles for ser %d: looks store-and-forward", d, ser)
	}
	if d < ser {
		t.Fatalf("delivery %d cycles can't beat serialization %d", d, ser)
	}
}

func TestOutputPortContentionQueues(t *testing.T) {
	// Two senders converge on node 2: the second message must arrive
	// roughly one serialization later than the first.
	k, nw, cfg := build(t, 3)
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		nw.Attach(i, func(_ *Packet, at sim.Time) { arrivals = append(arrivals, at) })
	}
	nw.Send(0, &Packet{Src: 0, Dst: 2, Size: 4096})
	nw.Send(0, &Packet{Src: 1, Dst: 2, Size: 4096})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	ser := cfg.SerializeCycles(4096)
	if gap < ser*9/10 || gap > ser*11/10 {
		t.Fatalf("arrival gap %d, want about one serialization %d", gap, ser)
	}
	if nw.Stats.PortWaits == 0 {
		t.Fatal("contention must be visible in PortWaits")
	}
}

func TestDistinctDestinationsDontContend(t *testing.T) {
	k, nw, _ := build(t, 4)
	var arrivals []sim.Time
	for i := 0; i < 4; i++ {
		nw.Attach(i, func(_ *Packet, at sim.Time) { arrivals = append(arrivals, at) })
	}
	nw.Send(0, &Packet{Src: 0, Dst: 2, Size: 4096})
	nw.Send(0, &Packet{Src: 1, Dst: 3, Size: 4096})
	k.Run()
	if arrivals[0] != arrivals[1] {
		t.Fatalf("parallel transfers arrived at %v, want simultaneous", arrivals)
	}
}

func TestSameSourceSerializesOnAccessLink(t *testing.T) {
	k, nw, cfg := build(t, 3)
	var arrivals []sim.Time
	for i := 0; i < 3; i++ {
		nw.Attach(i, func(_ *Packet, at sim.Time) { arrivals = append(arrivals, at) })
	}
	nw.Send(0, &Packet{Src: 0, Dst: 1, Size: 4096})
	nw.Send(0, &Packet{Src: 0, Dst: 2, Size: 4096})
	k.Run()
	gap := arrivals[1] - arrivals[0]
	ser := cfg.SerializeCycles(4096)
	if gap < ser*9/10 {
		t.Fatalf("second send from same source arrived only %d cycles later (ser=%d)", gap, ser)
	}
}

func TestLoopbackBypassesSwitch(t *testing.T) {
	k, nw, cfg := build(t, 2)
	var at sim.Time
	nw.Attach(0, func(_ *Packet, t sim.Time) { at = t })
	nw.Attach(1, func(*Packet, sim.Time) {})
	nw.Send(0, &Packet{Src: 0, Dst: 0, Size: 4096})
	k.Run()
	if at >= cfg.SerializeCycles(4096) {
		t.Fatalf("loopback at %d took a fabric-like time", at)
	}
}

func TestUnrestrictedCellReducesWireBytes(t *testing.T) {
	cfg := config.Default()
	cfg.UnrestrictedCell = true
	d, st := sendOne(cfg, 4096)
	d2, st2 := sendOne(config.Default(), 4096)

	if st.Cells != 1 {
		t.Fatalf("unrestricted cells = %d, want 1", st.Cells)
	}
	if st.WireBytes >= st2.WireBytes {
		t.Fatal("unrestricted cell size must shed header overhead")
	}
	if d >= d2 {
		t.Fatalf("unrestricted delivery %d not faster than cells %d", d, d2)
	}
}

func TestPacketBytes(t *testing.T) {
	p := &Packet{Size: 4096}
	if p.Bytes() != 4096 {
		t.Fatalf("Bytes() with Size = %d, want 4096", p.Bytes())
	}
}

func TestStatsAccounting(t *testing.T) {
	k, nw, _ := build(t, 2)
	nw.Attach(0, func(*Packet, sim.Time) {})
	nw.Attach(1, func(*Packet, sim.Time) {})
	nw.Send(0, &Packet{Src: 0, Dst: 1, Size: 100}) // 3 cells
	nw.Send(0, &Packet{Src: 1, Dst: 0, Size: 48})  // 1 cell
	k.Run()
	nw.Finish()
	if nw.Stats.Messages != 2 || nw.Stats.DataBytes != 148 {
		t.Fatalf("stats = %+v", nw.Stats)
	}
	if nw.Stats.Cells != 4 {
		t.Fatalf("cells = %d, want 4", nw.Stats.Cells)
	}
	if nw.Stats.WireBytes != 4*53 {
		t.Fatalf("wire bytes = %d, want %d", nw.Stats.WireBytes, 4*53)
	}
}

func TestBadDestinationPanics(t *testing.T) {
	k, nw, _ := build(t, 2)
	nw.Attach(0, func(*Packet, sim.Time) {})
	nw.Attach(1, func(*Packet, sim.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range destination did not panic")
		}
	}()
	nw.Send(0, &Packet{Src: 0, Dst: 7, Size: 1})
	k.Run()
}

func TestTooManyNodesErrors(t *testing.T) {
	// The node count is user input: exceeding the single switch's port
	// count is an error, not a panic, and the clos/torus topologies
	// accept the same count.
	k := sim.NewKernel()
	cfg := config.Default()
	if _, err := New(k, &cfg, 33); err == nil {
		t.Fatal("33 nodes on a 32-port switch did not error")
	}
	cfg.Topology = config.TopoClos
	if _, err := New(k, &cfg, 33); err != nil {
		t.Fatalf("33 nodes on a clos fabric: %v", err)
	}
	cfg.Topology = config.TopoTorus
	if _, err := New(k, &cfg, 33); err != nil {
		t.Fatalf("33 nodes on a torus fabric: %v", err)
	}
}

func TestDeliveryOrderPreservedPerPair(t *testing.T) {
	// Property: messages between the same pair arrive in send order
	// (FIFO links and ports guarantee it).
	f := func(sizes []uint16) bool {
		k := sim.NewKernel()
		cfg := config.Default()
		nw := mustNew(k, &cfg, 2)
		var order []int
		nw.Attach(0, func(*Packet, sim.Time) {})
		nw.Attach(1, func(p *Packet, _ sim.Time) { order = append(order, p.Size) })
		want := make([]int, 0, len(sizes))
		for i, s := range sizes {
			size := int(s)%8192 + 1 + i // distinct, positive
			want = append(want, size)
			nw.Send(0, &Packet{Src: 0, Dst: 1, Size: size})
		}
		k.Run()
		if len(order) != len(want) {
			return false
		}
		for i := range want {
			if order[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// mustNew builds a fabric that the test knows is addressable.
func mustNew(k *sim.Kernel, cfg *config.Config, n int) *Network {
	nw, err := New(k, cfg, n)
	if err != nil {
		panic(err)
	}
	return nw
}
