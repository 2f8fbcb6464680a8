package cni_test

import (
	"context"
	"strings"
	"testing"

	"cni"
)

func TestPublicAPIQuickstart(t *testing.T) {
	cfg := cni.DefaultConfig()
	c, err := cni.NewCluster(&cfg, 2, func(g *cni.Globals) { g.Alloc(64) })
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(func(w *cni.Worker) {
		w.Lock(0)
		w.WriteU64(0, w.ReadU64(0)+uint64(w.Node())+1)
		w.Unlock(0)
		w.Barrier(0)
	})
	if got := c.ReadU64(0); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if res.Time <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestPublicAPIApps(t *testing.T) {
	for _, app := range []cni.App{
		cni.NewJacobi(32, 2),
		cni.NewWater(16, 1),
		cni.NewCholesky(cni.SmallMatrix(64)),
	} {
		cfg := cni.DefaultConfig()
		c, res, err := cni.RunApp(&cfg, 2, app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if err := app.Verify(c); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if res.Time <= 0 {
			t.Fatalf("%s: no time", app.Name())
		}
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	if cni.DefaultConfig().NIC != cni.NICCNI {
		t.Fatal("DefaultConfig is not CNI")
	}
	if cni.StandardConfig().NIC != cni.NICStandard {
		t.Fatal("StandardConfig is not standard")
	}
	if cni.ConfigFor(cni.NICStandard).NIC != cni.NICStandard {
		t.Fatal("ConfigFor broken")
	}
	if cni.BCSSTK14().N != 1806 || cni.BCSSTK15().N != 3948 {
		t.Fatal("matrix generators mis-sized")
	}
}

func TestPublicAPIExperimentRegistry(t *testing.T) {
	specs := cni.Experiments()
	if len(specs) != 25 {
		t.Fatalf("%d experiments, want 25 (T1-T5, F2-F14, FB1, FC1, FR1, FS1, FT1, FD1, FS2)", len(specs))
	}
	spec, ok := cni.FindExperiment("T1")
	if !ok {
		t.Fatal("T1 missing")
	}
	out, err := cni.RunExperimentCtx(context.Background(), spec, cni.ExpOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "166 MHz") {
		t.Fatalf("T1 output:\n%s", out)
	}
}

func TestPublicAPILatency(t *testing.T) {
	lat := func(kind cni.NICKind, tweak func(*cni.Config)) float64 {
		v, err := cni.Measure(kind, cni.Probe{Metric: cni.MetricLatency, Size: 1024, Tweak: tweak})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	c := lat(cni.NICCNI, nil)
	o := lat(cni.NICOsiris, nil)
	s := lat(cni.NICStandard, nil)
	if c <= 0 || o <= c || s <= o {
		t.Fatalf("latencies: cni=%g osiris=%g std=%g, want cni < osiris < std", c, o, s)
	}
	tweaked := lat(cni.NICCNI, func(cf *cni.Config) {
		cf.TransmitCaching = false
	})
	if tweaked <= c {
		t.Fatal("disabling transmit caching must cost latency")
	}
}

func TestPublicAPIRPC(t *testing.T) {
	spec := cni.RPCSpec{Clients: 2, Open: true, Poisson: true, Rate: 8000,
		Requests: 40, ReqBytes: 128, RespBytes: 512, Seed: 5, Policy: cni.RPCDelay}
	cfg := cni.DefaultConfig()
	rep := cni.RunRPC(&cfg, spec)
	if rep.Stats.Completed != 80 || rep.Sustained <= 0 || rep.P99 <= 0 {
		t.Fatalf("rpc run: completed=%d sustained=%g p99=%d",
			rep.Stats.Completed, rep.Sustained, rep.P99)
	}
}

func TestPublicAPIKV(t *testing.T) {
	spec := cni.KVSpec{
		Servers: 1, Clients: 2, Seed: 3, Keys: 128, ZipfS: 1.1,
		Tenants: []cni.KVTenant{
			{Class: cni.TenantClass{Priority: 0}, Rate: 4000, Requests: 40, GetFrac: 1},
			{Class: cni.TenantClass{Priority: 1, Rate: 5000, Burst: 8}, Rate: 20000, Requests: 80, GetFrac: 0.5},
		},
		Isolation: true,
	}
	cfg := cni.DefaultConfig()
	rep := cni.RunKV(&cfg, spec)
	if rep.Stats.Issued != 240 || rep.P99 <= 0 {
		t.Fatalf("kv run: issued=%d p99=%d", rep.Stats.Issued, rep.P99)
	}
	if rep.Stats.BoardServed == 0 {
		t.Fatal("CNI board never served a repeat GET")
	}
	if len(rep.Tenants) != 2 || rep.Tenants[1].Throttled == 0 {
		t.Fatalf("tenant accounting: %+v", rep.Tenants)
	}
}

func TestPublicAPIRunExperimentCtx(t *testing.T) {
	spec, _ := cni.FindExperiment("T1")
	o := cni.ExpOptions{Quick: true, Jobs: 2}
	out, err := cni.RunExperimentCtx(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cni.RunExperimentCtx(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("RunExperimentCtx output not reproducible")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec2, _ := cni.FindExperiment("F2")
	if _, err := cni.RunExperimentCtx(ctx, spec2, o); err == nil {
		t.Fatal("pre-canceled context produced no error")
	}
}

func TestPublicAPIRunExperimentSuite(t *testing.T) {
	var specs []cni.ExpSpec
	for _, id := range []string{"T1", "F14"} {
		s, ok := cni.FindExperiment(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		specs = append(specs, s)
	}
	o := cni.ExpOptions{Quick: true, Jobs: 4}
	outs, err := cni.RunExperimentSuite(context.Background(), specs, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outputs", len(outs))
	}
	for i, s := range specs {
		alone, err := cni.RunExperimentCtx(context.Background(), s, o)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != alone {
			t.Fatalf("%s: suite output differs from standalone run", s.ID)
		}
	}
}

func TestPublicAPIMeasure(t *testing.T) {
	lat, err := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricLatency, Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency probe: %g ns", lat)
	}
	bw, err := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricBandwidth, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 || bw > 78 {
		t.Fatalf("bandwidth probe: %g MB/s against a 622 Mb/s link", bw)
	}
	coll, err := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricCollective, Nodes: 4, Op: "barrier"})
	if err != nil {
		t.Fatal(err)
	}
	if coll <= 0 {
		t.Fatalf("collective probe: %g ns", coll)
	}
	if _, err := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricBandwidth}); err == nil {
		t.Fatal("zero-size bandwidth probe accepted")
	}
}

func TestPublicAPIClassifierAndChannels(t *testing.T) {
	pf := cni.NewClassifier()
	pat := cni.Pattern{{Offset: 0, Mask: 0xffffffff, Value: 7}}
	if err := pf.Program(pat, 9); err != nil {
		t.Fatal(err)
	}
	hdr := []byte{0, 0, 0, 7}
	if v, _, ok := pf.Classify(hdr); !ok || v != 9 {
		t.Fatalf("classify = %d, %v", v, ok)
	}
	mgr := cni.NewChannelManager(2, 8)
	ch, err := mgr.Open(0, 1, cni.Region{Base: 0x1000, Len: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.PostTransmit(cni.Descriptor{VAddr: 0x1000, Len: 64}); err != nil {
		t.Fatal(err)
	}
}
