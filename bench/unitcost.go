package main

// Unit costs: each times one public entry point of a layer directly,
// outside any workload, as the median of several samples of at least
// unitSampleTime each (tests use shorter samples).

import (
	"encoding/binary"
	"fmt"
	"time"

	"cni/internal/adc"
	"cni/internal/atm"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/memsys"
	"cni/internal/msgcache"
	"cni/internal/pathfinder"
	"cni/internal/sim"
	"cni/internal/topo"
)

const (
	unitSamples    = 5
	unitSampleTime = 200 * time.Millisecond
)

// unitSample times batches of growing size until minTime has passed
// and returns the mean nanoseconds per operation. batch(n) performs n
// operations and returns the time they took, which lets it leave its
// own untimed preparation out.
func unitSample(minTime time.Duration, batch func(n int) time.Duration) float64 {
	var el time.Duration
	ops := 0
	for n := 1; el < minTime; n = min(2*n, 1<<20) {
		el += batch(n)
		ops += n
	}
	return float64(el.Nanoseconds()) / float64(ops)
}

func unitCost(d time.Duration, batch func(n int) time.Duration) float64 {
	v := make([]float64, unitSamples)
	for i := range v {
		v[i] = unitSample(d, batch)
	}
	return median(v)
}

// timeLoop times n calls of op.
func timeLoop(n int, op func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Since(start)
}

func torusConfig() config.Config {
	cfg := config.ForNIC(config.NICCNI)
	cfg.Topology = config.TopoTorus
	return cfg
}

// unitCostTable lists the unit costs in report order.
var unitCostTable = []struct {
	name, unit string
	measure    func(d time.Duration) (float64, error)
}{
	{"sim.event_ns", "ns", eventCost},
	{"sim.handoff_ns", "ns", handoffCost},
	{"sim.window_ns", "ns", windowCost},
	{"atm.send_ns", "ns", sendCost},
	{"topo.route_ns", "ns", routeCost},
	{"memsys.read_ns", "ns", readCost},
	{"memsys.flush_ns", "ns", flushCost},
	{"msgcache.lookup_ns", "ns", lookupCost},
	{"pathfinder.classify_ns", "ns", classifyCost},
	{"adc.pushpop_ns", "ns", pushPopCost},
	{"kv.codec_ns", "ns", codecCost},
	{"dsm.read_ns", "ns", dsmReadCost},
	{"cluster.new16_ms", "ms", func(d time.Duration) (float64, error) { return clusterNewCost(d, config.ForNIC(config.NICCNI), 16) }},
	{"cluster.new1024_ms", "ms", func(d time.Duration) (float64, error) { return clusterNewCost(d, torusConfig(), 1024) }},
}

// unitCosts measures every unit cost with samples of at least d each.
func unitCosts(d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, c := range unitCostTable {
		v, err := c.measure(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out[c.name] = v
	}
	return out, nil
}

// eventCost is Kernel.AtCall plus its dispatch by Run, with 4096
// events pending: every event schedules its successor at a random
// delay, so the queue depth stays put.
func eventCost(d time.Duration) (float64, error) {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	left := 0
	var fn func(any)
	fn = func(any) {
		if left--; left == 0 {
			k.Stop()
		}
		k.AtCall(k.Now()+1+sim.Time(rng.Intn(4096)), fn, nil)
	}
	for i := 0; i < 4096; i++ {
		k.AtCall(sim.Time(rng.Intn(4096)), fn, nil)
	}
	return unitCost(d, func(n int) time.Duration {
		left = n
		start := time.Now()
		k.Run()
		return time.Since(start)
	}), nil
}

// handoffCost is one Proc.Advance(1) plus Sync: a round trip of control
// between the simulated processor's goroutine and the kernel.
func handoffCost(d time.Duration) (float64, error) {
	return unitCost(d, func(n int) time.Duration {
		k := sim.NewKernel()
		k.Spawn("handoff", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
				p.Sync()
			}
		})
		start := time.Now()
		k.Run()
		return time.Since(start)
	}), nil
}

// windowCost is one lock-stepped window of a 2-shard ShardSet in which
// each shard executes a single event.
func windowCost(d time.Duration) (float64, error) {
	const width = 100
	return unitCost(d, func(n int) time.Duration {
		ss := sim.NewShardSet(2, sim.EngineCalendar)
		ss.SetLookahead(width)
		for i := 0; i < ss.Shards(); i++ {
			k, left := ss.Kernel(i), n
			var fn func(any)
			fn = func(any) {
				if left--; left > 0 {
					k.AtCall(k.Now()+width, fn, nil)
				}
			}
			k.AtCall(0, fn, nil)
		}
		start := time.Now()
		ss.Run()
		return time.Since(start)
	}), nil
}

// randomPairs draws n (src, dst) node pairs with src != dst.
func randomPairs(n, nodes int) [][2]int {
	rng := sim.NewRNG(1)
	out := make([][2]int, n)
	for i := range out {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		out[i] = [2]int{src, dst}
	}
	return out
}

// sendCost is Network.Send of a 1 KB packet between random nodes of a
// 1024-node torus; the deliveries it schedules run untimed between
// batches.
func sendCost(d time.Duration) (float64, error) {
	cfg := torusConfig()
	k := sim.NewKernel()
	net, err := atm.New(k, &cfg, 1024)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 1024; i++ {
		net.Attach(i, func(*atm.Packet, sim.Time) {})
	}
	var pkts []*atm.Packet
	for _, p := range randomPairs(4096, 1024) {
		pkts = append(pkts, &atm.Packet{Src: p[0], Dst: p[1], VCI: uint32(p[0]<<16 | p[1]), Size: 1040})
	}
	return unitCost(d, func(n int) time.Duration {
		var el time.Duration
		for done := 0; done < n; {
			m := min(n-done, len(pkts))
			el += timeLoop(m, func(i int) { net.Send(k.Now(), pkts[i]) })
			k.Run()
			done += m
		}
		return el
	}), nil
}

// routeCost is Topology.Route between random nodes of a 1024-node torus.
func routeCost(d time.Duration) (float64, error) {
	cfg := torusConfig()
	tp, err := topo.New(&cfg, 1024)
	if err != nil {
		return 0, err
	}
	pairs := randomPairs(4096, 1024)
	buf := make([]topo.Hop, 0, 32)
	return unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(i int) {
			p := pairs[i%len(pairs)]
			buf = tp.Route(p[0], p[1], buf[:0])
		})
	}), nil
}

// readCost is Hierarchy.Read at random words of a 256 KB region, which
// spills the 32 KB L1 into the L2.
func readCost(d time.Duration) (float64, error) {
	cfg := config.ForNIC(config.NICCNI)
	h := memsys.New(&cfg)
	rng := sim.NewRNG(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(256<<10)) &^ 7
	}
	return unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(i int) { h.Read(addrs[i%len(addrs)]) })
	}), nil
}

// flushCost is Hierarchy.FlushRange of one dirty page; the writes that
// dirty each batch of pages run untimed.
func flushCost(d time.Duration) (float64, error) {
	cfg := config.ForNIC(config.NICCNI)
	h := memsys.New(&cfg)
	const pages = 64
	page := uint64(cfg.PageBytes)
	return unitCost(d, func(n int) time.Duration {
		var el time.Duration
		for done := 0; done < n; {
			m := min(n-done, pages)
			for i := 0; i < m; i++ {
				h.WriteRange(uint64(i)*page, int(page))
			}
			el += timeLoop(m, func(i int) { h.FlushRange(uint64(i)*page, int(page)) })
			done += m
		}
		return el
	}), nil
}

// lookupCost is Cache.LookupTransmit over twice as many pages as the
// 32 KB Message Cache holds frames: half the lookups hit.
func lookupCost(d time.Duration) (float64, error) {
	cfg := config.ForNIC(config.NICCNI)
	mc := msgcache.New(cfg.MessageCacheByte, cfg.PageBytes, true)
	page := uint64(cfg.PageBytes)
	addrs := make([]uint64, 2*mc.Frames())
	for i := range addrs {
		addrs[i] = uint64(i) * page
	}
	for _, a := range addrs[:mc.Frames()] {
		mc.BindTransmit(a)
	}
	return unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(i int) { mc.LookupTransmit(addrs[i%len(addrs)]) })
	}), nil
}

// classifyCost is Classifier.Classify against a board-sized program: the
// DSM protocol's operations plus sub-operation patterns that share
// their leading test, the way collectives and connections register.
func classifyCost(d time.Duration) (float64, error) {
	c := pathfinder.New()
	ops := []uint32{
		dsm.OpDiff, dsm.OpPageReq, dsm.OpPageReply, dsm.OpLockAcq, dsm.OpLockGrant, dsm.OpLockRel,
		dsm.OpBarEnter, dsm.OpBarRelease, dsm.OpTaskReq, dsm.OpTaskReply, dsm.OpTaskPush, dsm.OpUpdate,
	}
	var hdrs [][]byte
	header := func(op, aux uint32) []byte {
		h := make([]byte, 16)
		binary.BigEndian.PutUint32(h[0:], op)
		binary.BigEndian.PutUint32(h[12:], aux)
		return h
	}
	for _, op := range ops {
		if err := c.Program(pathfinder.Pattern{{Offset: 0, Mask: 0xffffffff, Value: op}}, pathfinder.Value(op)); err != nil {
			return 0, err
		}
		hdrs = append(hdrs, header(op, 0))
	}
	const subOp = 0x4255
	for aux := uint32(0); aux < 8; aux++ {
		pat := pathfinder.Pattern{{Offset: 0, Mask: 0xffffffff, Value: subOp}, {Offset: 12, Mask: 0xffffffff, Value: aux}}
		if err := c.Program(pat, pathfinder.Value(subOp<<8|aux)); err != nil {
			return 0, err
		}
		hdrs = append(hdrs, header(subOp, aux))
	}
	return unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(i int) { c.Classify(hdrs[i%len(hdrs)]) })
	}), nil
}

// pushPopCost is Queue.Push followed by Pop on a device-channel ring.
func pushPopCost(d time.Duration) (float64, error) {
	q := adc.NewQueue(256)
	desc := adc.Descriptor{VAddr: 0x1000, Len: 2048}
	return unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(int) {
			q.Push(desc)
			q.Pop()
		})
	}), nil
}

// codecCost is EncodeRequest followed by DecodeRequest of a SET.
func codecCost(d time.Duration) (float64, error) {
	req := kv.Request{Kind: kv.Set, Tenant: 1, Key: 42, Conn: 7, ID: 99, From: 3, Deadline: 12345, ValBytes: 64}
	buf := make([]byte, 0, kv.ReqBytes)
	var err error
	el := unitCost(d, func(n int) time.Duration {
		return timeLoop(n, func(int) {
			buf = kv.EncodeRequest(buf[:0], &req)
			if _, e := kv.DecodeRequest(buf); e != nil {
				err = e
			}
		})
	})
	return el, err
}

// dsmReadCost is Worker.ReadU64 of words on valid pages, timed inside
// the body of a one-node application, where a worker exists.
func dsmReadCost(d time.Duration) (float64, error) {
	const words = 4096
	cfg := config.ForNIC(config.NICCNI)
	base := 0
	c, err := cluster.New(&cfg, 1, func(g *dsm.Globals) { base = g.Alloc(words) })
	if err != nil {
		return 0, err
	}
	var cost float64
	c.Run(func(w *dsm.Worker) {
		cost = unitCost(d, func(n int) time.Duration {
			return timeLoop(n, func(i int) { w.ReadU64(base + i%words) })
		})
	})
	return cost, nil
}

// clusterNewCost is cluster.New of an n-node machine, in milliseconds.
func clusterNewCost(d time.Duration, cfg config.Config, n int) (float64, error) {
	var err error
	ns := unitCost(d, func(m int) time.Duration {
		return timeLoop(m, func(int) {
			if _, e := cluster.New(&cfg, n, nil); e != nil {
				err = e
			}
		})
	})
	return ns / 1e6, err
}
