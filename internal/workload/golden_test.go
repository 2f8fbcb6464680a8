package workload

import (
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/rpc"
	"cni/internal/tenant"
)

// serving is the pinned outcome of one small serving run: wall time,
// the client and server counters, the NIC response-cache counters, the
// free-queue descriptors the boards consumed, and the exact latency
// percentiles.
type serving struct {
	Time                                            int64
	Issued, Completed, Rejected, Throttled, Expired uint64
	Served, FreeDry, QueueFull, Delayed             uint64
	QueuePeak, ParkedPeak                           int
	BoardServed, WriteInvals, InsertVetoes          uint64
	FreeConsumed                                    uint64
	P50, P99                                        int64
}

func freeConsumed(res *cluster.Result) uint64 {
	var n uint64
	for _, ns := range res.PerNode {
		n += ns.NIC.FreeConsumed
	}
	return n
}

func rpcServing(r *Report) serving {
	s := r.Stats
	return serving{
		Time: int64(r.Wall), Issued: s.Issued, Completed: s.Completed, Rejected: s.Rejected, Expired: s.Expired,
		Served: s.Served, FreeDry: s.FreeDry, QueueFull: s.QueueFull, Delayed: s.Delayed,
		QueuePeak: s.QueuePeak, ParkedPeak: s.ParkedPeak,
		FreeConsumed: freeConsumed(r.Res), P50: int64(r.P50), P99: int64(r.P99),
	}
}

// kvServing leaves QueuePeak out: the KV values were pinned before the
// KV service recorded it (TestTenantIsolationBoundsVictimTail bounds
// it instead).
func kvServing(r *KVReport) serving {
	s := r.Stats
	return serving{
		Time: int64(r.Wall), Issued: s.Issued, Completed: s.Completed, Rejected: s.Rejected,
		Throttled: s.Throttled, Expired: s.Expired,
		Served: s.Served, FreeDry: s.FreeDry, QueueFull: s.QueueFull, Delayed: s.Delayed,
		ParkedPeak:  s.ParkedPeak,
		BoardServed: s.BoardServed, WriteInvals: s.WriteInvals, InsertVetoes: s.InsertVetoes,
		FreeConsumed: freeConsumed(r.Res), P50: int64(r.P50), P99: int64(r.P99),
	}
}

// TestServingGolden pins small RPC and KV serving runs on all three
// interfaces to exact values, so a change to the serving transport that
// moves any admission decision, response or cost shows up here. The RPC
// runs overload a tiny work queue and buffer pool under both policies;
// the KV runs cover isolation on and off, with the NIC response cache on
// the CNI and once without it, and one KV run sheds.
func TestServingGolden(t *testing.T) {
	rpcSpec := func(p rpc.Policy) Spec {
		return Spec{Servers: 1, Clients: 3, Open: true, Poisson: true, Rate: 40000,
			Requests: 40, ReqBytes: 128, RespBytes: 512, Seed: 5, Deadline: 400000,
			Service: 4000, WorkQueue: 4, FreeBufs: 6, Policy: p}
	}
	rpcCases := []struct {
		kind   config.NICKind
		policy rpc.Policy
		want   serving
	}{
		{config.NICCNI, rpc.Shed, serving{Time: 221179, Issued: 120, Completed: 47, Rejected: 73, Served: 47,
			QueueFull: 73, QueuePeak: 4, FreeConsumed: 110, P50: 24152, P99: 30310}},
		{config.NICCNI, rpc.Delay, serving{Time: 527522, Issued: 120, Completed: 120, Served: 120,
			FreeDry: 82, QueueFull: 4, Delayed: 86, QueuePeak: 4, ParkedPeak: 73, FreeConsumed: 32, P50: 211816, P99: 333885}},
		{config.NICOsiris, rpc.Shed, serving{Time: 466693, Issued: 120, Completed: 6, Rejected: 110, Expired: 4, Served: 10,
			QueueFull: 110, QueuePeak: 4, FreeConsumed: 62, P50: 26072, P99: 441565}},
		{config.NICOsiris, rpc.Delay, serving{Time: 607245, Issued: 120, Completed: 37, Expired: 83, Served: 120,
			FreeDry: 112, QueueFull: 2, Delayed: 114, QueuePeak: 4, ParkedPeak: 111, FreeConsumed: 11, P50: 408985, P99: 457470}},
		{config.NICStandard, rpc.Shed, serving{Time: 694345, Issued: 120, Completed: 5, Rejected: 111, Expired: 4, Served: 9,
			QueueFull: 111, QueuePeak: 4, P50: 35295, P99: 685813}},
		{config.NICStandard, rpc.Delay, serving{Time: 690328, Issued: 120, Completed: 4, Expired: 116, Served: 120,
			FreeDry: 112, QueueFull: 2, Delayed: 114, QueuePeak: 4, ParkedPeak: 112, P50: 26533, P99: 570479}},
	}
	for _, tc := range rpcCases {
		cfg := config.ForNIC(tc.kind)
		got := rpcServing(Run(&cfg, rpcSpec(tc.policy)))
		if got != tc.want {
			t.Errorf("rpc %v/%v:\n got %+v\nwant %+v", tc.kind, tc.policy, got, tc.want)
		}
	}

	kvSpec := func(iso bool, p rpc.Policy) KVSpec {
		return KVSpec{Servers: 2, Clients: 2, Seed: 11, Keys: 64, ZipfS: 1.1,
			Deadline: 600000, Isolation: iso, WorkQueue: 4, FreeBufs: 6,
			ServiceGet: 3000, ServiceSet: 4000, Policy: p,
			Tenants: []KVTenant{
				{Class: tenant.Class{Priority: 0}, Rate: 30000, Requests: 40, GetFrac: 0.8},
				{Class: tenant.Class{Priority: 1, Rate: 20000, Burst: 4}, Rate: 30000, Requests: 40, GetFrac: 0.9},
			}}
	}
	kvCases := []struct {
		kind     config.NICKind
		iso      bool
		nicCache bool
		policy   rpc.Policy
		want     serving
	}{
		{config.NICCNI, false, true, rpc.Delay, serving{Time: 282530, Issued: 160, Completed: 160, Served: 95,
			FreeDry: 1, QueueFull: 2, Delayed: 3, ParkedPeak: 2, BoardServed: 65, WriteInvals: 8, InsertVetoes: 9, P50: 10787, P99: 32114}},
		{config.NICCNI, true, true, rpc.Delay, serving{Time: 287189, Issued: 160, Completed: 158, Throttled: 2, Served: 94,
			FreeDry: 13, Delayed: 13, ParkedPeak: 3, BoardServed: 64, WriteInvals: 11, InsertVetoes: 4, P50: 9984, P99: 46628}},
		{config.NICCNI, true, false, rpc.Delay, serving{Time: 324209, Issued: 160, Completed: 144, Throttled: 16, Served: 144,
			FreeDry: 52, Delayed: 52, ParkedPeak: 11, P50: 13981, P99: 106210}},
		{config.NICCNI, true, true, rpc.Shed, serving{Time: 282838, Issued: 160, Completed: 151, Rejected: 7, Throttled: 2, Served: 85,
			FreeDry: 7, BoardServed: 66, WriteInvals: 10, InsertVetoes: 5, P50: 9285, P99: 43447}},
		{config.NICOsiris, false, false, rpc.Delay, serving{Time: 625382, Issued: 160, Completed: 160, Served: 160,
			FreeDry: 141, QueueFull: 4, Delayed: 145, ParkedPeak: 74, P50: 325138, P99: 356927}},
		{config.NICOsiris, true, false, rpc.Delay, serving{Time: 617590, Issued: 160, Completed: 145, Throttled: 15, Served: 145,
			FreeDry: 127, Delayed: 127, ParkedPeak: 71, P50: 312685, P99: 365679}},
		{config.NICStandard, false, false, rpc.Delay, serving{Time: 772702, Issued: 160, Completed: 160, Served: 160,
			FreeDry: 144, QueueFull: 3, Delayed: 147, ParkedPeak: 74, P50: 430396, P99: 499198}},
		{config.NICStandard, true, false, rpc.Delay, serving{Time: 766200, Issued: 160, Completed: 145, Throttled: 15, Served: 145,
			FreeDry: 130, Delayed: 130, ParkedPeak: 70, P50: 421969, P99: 498500}},
	}
	for _, tc := range kvCases {
		cfg := config.ForNIC(tc.kind)
		cfg.NICResponseCache = tc.nicCache
		got := kvServing(RunKV(&cfg, kvSpec(tc.iso, tc.policy)))
		if got != tc.want {
			t.Errorf("kv %v iso=%v cache=%v %v:\n got %+v\nwant %+v", tc.kind, tc.iso, tc.nicCache, tc.policy, got, tc.want)
		}
	}
}
