package experiments

import (
	"context"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cni/internal/config"
)

// parityOpts keeps the parity run fast: quick inputs, two processor
// counts in the scaling sweeps.
var parityOpts = Options{Quick: true, Procs: []int{1, 4}}

// renderSequential produces an artifact through the legacy inline path
// (no runner): the exact code path the seed shipped.
func renderSequential(s Spec, o Options) string {
	if s.Figure != nil {
		return RenderFigure(s.Figure(o))
	}
	return RenderTable(s.Table(o))
}

// suiteGolden is the committed rendering of the parity suite: every
// artifact's output followed by a blank line, in registry order. It is
// what the experiments CLI prints for the same options with its ready
// lines removed, so this one command regenerates it:
//
//	go run ./cmd/experiments -quick -procs 1,4 | grep -v ' ready after ' > internal/experiments/testdata/quick_suite.golden
const suiteGolden = "testdata/quick_suite.golden"

// TestParallelSuiteParity is the golden parity gate of the harness:
// for every registered artifact, the parallel suite's rendered output
// must be byte-identical to the sequential path and to suiteGolden.
// The suite runs on one shared 4-worker pool (memoization and
// cross-artifact interleaving fully active), the sequential reference
// inline with no pool at all.
func TestParallelSuiteParity(t *testing.T) {
	specs := All()
	par := parityOpts
	par.Jobs = 4
	outs, err := RunSuite(context.Background(), specs, par)
	if err != nil {
		t.Fatalf("parallel suite: %v", err)
	}
	for i, s := range specs {
		seq := renderSequential(s, parityOpts)
		if outs[i] != seq {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				s.ID, seq, outs[i])
		}
	}
	raw, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	for i, s := range specs {
		section := outs[i] + "\n"
		if !strings.HasPrefix(golden, section) {
			t.Fatalf("%s: output differs from %s\n--- got ---\n%s", s.ID, suiteGolden, outs[i])
		}
		golden = golden[len(section):]
	}
	if golden != "" {
		t.Fatalf("%s has %d bytes past the last artifact", suiteGolden, len(golden))
	}
}

// TestRunSpecMatchesSequential covers the single-artifact entry point
// at several worker counts: byte-identical output regardless of Jobs.
func TestRunSpecMatchesSequential(t *testing.T) {
	spec, _ := Find("F2")
	want := renderSequential(spec, parityOpts)
	for _, jobs := range []int{1, 2, 8} {
		o := parityOpts
		o.Jobs = jobs
		got, err := RunSpec(context.Background(), spec, o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got != want {
			t.Fatalf("jobs=%d: output differs from sequential", jobs)
		}
	}
}

// TestSuiteMemoization verifies identical points shared between
// artifacts execute once: running F2 twice on one runner plans no new
// points the second time, and the cross-artifact sharing FR1 depends
// on (its lossless baselines are F14/FC1 points) actually hits.
func TestSuiteMemoization(t *testing.T) {
	o := parityOpts
	o.Jobs = 2
	r := NewRunner(context.Background(), o)
	defer r.Close()
	spec, _ := Find("F2")
	first, err := r.RunSpec(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	_, planned := r.Counts()
	hits := r.MemoHits()
	second, err := r.RunSpec(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("memoized rerun rendered different output")
	}
	_, planned2 := r.Counts()
	if planned2 != planned {
		t.Fatalf("second identical run planned %d new points", planned2-planned)
	}
	if r.MemoHits() <= hits {
		t.Fatal("second identical run registered no memo hits")
	}
}

// TestSuiteCancellation cancels mid-suite and requires a prompt error
// return with no goroutine leaks: every worker and generator goroutine
// must wind down once RunSuite returns.
func TestSuiteCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	o := parityOpts
	o.Jobs = 2
	o.Progress = func(ev Progress) {
		// Cancel as soon as the pool has something in flight.
		if ev.Done >= 2 && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	start := time.Now()
	_, err := RunSuite(ctx, All(), o)
	if err == nil {
		t.Fatal("canceled suite returned no error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("canceled suite took %v to return", took)
	}
	// Workers and generator goroutines must exit; give the scheduler a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
}

// TestRunSpecPanicBecomesError routes a model panic through the
// harness as an error instead of crashing the process.
func TestRunSpecPanicBecomesError(t *testing.T) {
	bad := Spec{ID: "FX", Title: "explodes",
		Figure: func(o Options) Figure { panic("boom") }}
	_, err := RunSpec(context.Background(), bad, Options{Jobs: 2})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped panic", err)
	}
	empty := Spec{ID: "FY", Title: "no generator"}
	if _, err := RunSpec(context.Background(), empty, Options{Jobs: 1}); err == nil {
		t.Fatal("spec without generator returned no error")
	}
}

// TestMeasureUnifiedEntryPoint checks Measure against the harness
// point the figures submit for the same probe — run here at two kernel
// shards, so the defaults, the probe's Config and the shard count all
// have to agree — and checks its argument validation.
func TestMeasureUnifiedEntryPoint(t *testing.T) {
	tweak := func(c *config.Config) { c.TransmitCaching = false }
	o := Options{Shards: 2}
	for _, tc := range []struct {
		kind  config.NICKind
		probe Probe // what Measure is given
		point Probe // the figure point's spelling of the same probe
	}{
		{config.NICCNI, Probe{Metric: MetricLatency, Size: 1024}, Probe{Metric: MetricLatency, Size: 1024}},
		{config.NICCNI, Probe{Metric: MetricLatency, Size: 1024, Tweak: tweak}, Probe{Metric: MetricLatency, Size: 1024, Nodes: 2, Tweak: tweak}},
		{config.NICStandard, Probe{Metric: MetricBandwidth, Size: 256}, Probe{Metric: MetricBandwidth, Size: 256}},
		{config.NICCNI, Probe{Metric: MetricCollective, Nodes: 4, Op: "allreduce"}, Probe{Metric: MetricCollective, Nodes: 4, Op: "allreduce"}},
		// Defaults: a collective with zero Nodes/Op is a 2-node barrier.
		{config.NICCNI, Probe{Metric: MetricCollective}, Probe{Metric: MetricCollective, Nodes: 2, Op: "barrier"}},
	} {
		got, err := Measure(tc.kind, tc.probe)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.probePoint(tc.kind, tc.point).Wait(); got != want {
			t.Fatalf("%v %+v: Measure %v != harness point %v", tc.kind, tc.probe, got, want)
		}
	}
	for _, bad := range []Probe{
		{Metric: MetricLatency, Size: -1},
		{Metric: MetricLatency, Nodes: 5},
		{Metric: MetricBandwidth},
		{Metric: MetricCollective, Op: "gather"},
		{Metric: MetricCollective, Nodes: 1},
		{Metric: Metric(99)},
	} {
		if _, err := Measure(config.NICCNI, bad); err == nil {
			t.Fatalf("probe %+v accepted", bad)
		}
	}
}

// TestProgressAccounting checks the live counters: totals grow
// monotonically, done ends equal to total, and the final counts agree
// with the runner's.
func TestProgressAccounting(t *testing.T) {
	var events atomic.Int64
	var maxDone atomic.Int64
	o := parityOpts
	o.Jobs = 2
	o.Progress = func(ev Progress) {
		events.Add(1)
		if ev.Done > int(maxDone.Load()) {
			maxDone.Store(int64(ev.Done))
		}
		if ev.Done > ev.Total {
			t.Errorf("done %d > total %d", ev.Done, ev.Total)
		}
	}
	spec, _ := Find("T5")
	r := NewRunner(context.Background(), o)
	defer r.Close()
	if _, err := r.RunSpec(spec, o); err != nil {
		t.Fatal(err)
	}
	done, total := r.Counts()
	if done != total {
		t.Fatalf("finished artifact left %d/%d points", done, total)
	}
	if events.Load() == 0 || int(maxDone.Load()) != done {
		t.Fatalf("progress saw %d events, max done %d, want done %d",
			events.Load(), maxDone.Load(), done)
	}
}
