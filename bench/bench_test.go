package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tinyOptions runs the workloads at their test sizes.
var tinyOptions = options{seed: 1, seconds: 1, tiny: true}

// TestWorkloadsSmoke runs every workload at its tiny size through the
// benchmark's own pass and check code: a warm-up and two timed passes
// that must all succeed with one digest and identical exact counts, and
// a shards-0 and a shards-2 pass that must agree on the digest.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := &session{name: w.name, build: w.inputs(tinyOptions.seed, true), log: io.Discard}
			s.warmUp()
			passes := s.timed(w.shards, 0, 2)
			if s.failed != 0 || len(passes) != 2 {
				t.Fatalf("%d of %d passes failed", s.failed, s.attempted)
			}
			if passes[0].out.events == 0 {
				t.Fatal("a pass executed no kernel events")
			}
			if !reflect.DeepEqual(passes[0].out.counts, passes[1].out.counts) {
				t.Fatalf("exact counts differ between passes:\n%v\n%v", passes[0].out.counts, passes[1].out.counts)
			}
			var digests [2]uint64
			for i, shards := range []int{0, 2} {
				pr := runPass(s.build, shards)
				if pr.err != nil {
					t.Fatalf("shards %d: %v", shards, pr.err)
				}
				digests[i] = pr.out.digest
			}
			if digests[0] != digests[1] {
				t.Fatalf("digest %016x at shards 0, %016x at shards 2", digests[0], digests[1])
			}
		})
	}
}

// TestFailedPassesAreCounted injects a failing verifier, a panic and a
// changed model into passes and requires each to count as a failed pass
// while the session goes on.
func TestFailedPassesAreCounted(t *testing.T) {
	w, _ := workloadByName("serve-rpc")
	good := w.inputs(1, true)
	calls := 0
	build := func(shards int) (*machine, error) {
		m, err := good(shards)
		if err != nil {
			return nil, err
		}
		calls++
		switch calls {
		case 2:
			m.check = func() (outcome, error) { return outcome{}, errors.New("injected verifier failure") }
		case 3:
			m.run = func() { panic("injected panic") }
		case 4:
			check := m.check
			m.check = func() (outcome, error) {
				out, err := check()
				out.digest++
				return out, err
			}
		}
		return m, nil
	}
	s := &session{name: "injected", build: build, log: io.Discard}
	s.warmUp()
	passes := s.timed(0, 0, 4)
	if s.attempted != 5 || s.failed != 3 || len(passes) != 1 {
		t.Fatalf("attempted %d, failed %d, succeeded %d; want 5, 3, 1", s.attempted, s.failed, len(passes))
	}
}

// TestTracedRun makes a tiny traced run and checks that it reports
// every per-layer metric, that the CPU partition covers the profile,
// and that it leaves its profile, spans and layer table behind.
func TestTracedRun(t *testing.T) {
	o := tinyOptions
	o.out = t.TempDir()
	w, _ := workloadByName("serve-kv")
	res, _, _, err := traceOne(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%d of %d passes failed", res.Failed, res.Attempted)
	}
	for _, m := range perLayerMetrics() {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	if sum := partitionSum(res.Metrics); math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu partition sums to %g", sum)
	}
	for _, f := range []string{"cpu.pprof", "spans.json", "layers.json"} {
		if _, err := os.Stat(filepath.Join(o.out, w.name, f)); err != nil {
			t.Error(err)
		}
	}
}

func partitionSum(m map[string]metric) float64 {
	sum := 0.0
	for _, l := range cpuLayers {
		sum += m[l].Value
	}
	return sum
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which describes the
// benchmark to whoever runs it, equal to the tables the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, wantNames []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		wantNames = append(wantNames, w.name)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("workloads %v, code has %v", names, wantNames)
	}
	var wantE2E []entry
	for _, d := range endToEndDefs {
		better := "higher"
		if d.lowerBetter {
			better = "lower"
		}
		wantE2E = append(wantE2E, entry{Name: d.name, Unit: d.unit, Better: better, Bound: d.bound})
	}
	if !reflect.DeepEqual(spec.EndToEnd, wantE2E) {
		t.Errorf("end_to_end %+v, code has %+v", spec.EndToEnd, wantE2E)
	}
	var layers []metricName
	for _, m := range spec.PerLayer {
		layers = append(layers, metricName{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	if want := perLayerMetrics(); !reflect.DeepEqual(layers, want) {
		t.Errorf("per_layer %v, code has %v", layers, want)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), the definition the spread bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 1}, 0.25, 4.75}, // Python extrapolates below two points too
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict pins the comparison rules: a gain needs ten pairs, nine
// in ten won and a gap wider than the base's quartile spread.
func TestVerdict(t *testing.T) {
	d := metricDef{name: "pass_s", unit: "s", lowerBetter: true, bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		base   []float64
		change []float64
		want   string
	}{
		{"faster on ten pairs", base, scale(0.9, 10), "improved"},
		{"faster on five pairs only", base[:5], scale(0.9, 5), "unchanged"},
		{"slower beyond the bound", base, scale(1.2, 10), "regressed"},
		{"same", base, scale(1, 10), "unchanged"},
		{"noisy base", []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, scale(1, 10), "unresolved"},
	} {
		if got, _, _ := verdict(d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLayerAttribution pins the profile partition rules on hand-made
// stacks: the innermost frame of this module names the layer, sim is
// split by file, and frames of the runtime alone are the collector's or
// the runtime's; hand-off, allocation and preemption cut across.
func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		frames []frame
		layer  string
		cuts   []string
	}{
		{[]frame{
			{"runtime.selectgo", "select.go"},
			{"cni/internal/sim.(*Proc).yield", "/x/internal/sim/proc.go"},
			{"cni/internal/rpc.(*Conn).Fire", "/x/internal/rpc/rpc.go"},
		}, "cpu.sim.proc", []string{"cpu.sim.handoff"}},
		{[]frame{
			{"cni/internal/sim.(*calendar).pop", "/x/internal/sim/calendar.go"},
			{"cni/internal/sim.(*Kernel).Run", "/x/internal/sim/kernel.go"},
		}, "cpu.sim.kernel", nil},
		{[]frame{
			{"cni/internal/sim.(*ShardSet).Run.func1", "/x/internal/sim/shard.go"},
		}, "cpu.sim.shard", nil},
		{[]frame{
			{"runtime.mallocgc", "malloc.go"},
			{"cni/internal/apps/spmat.BCSSTK14", "/x/internal/apps/spmat/gen.go"},
			{"cni/internal/memsys.New", "/x/internal/memsys/memsys.go"},
		}, "cpu.apps", []string{"cpu.runtime.alloc"}},
		{[]frame{
			{"cni/internal/config.ForNIC", "/x/internal/config/config.go"},
		}, "cpu.other", nil},
		{[]frame{{"main.runPass", "/x/bench/run.go"}}, "cpu.bench", nil},
		{[]frame{{"cni/bench.runPass", "/x/bench/run.go"}}, "cpu.bench", nil},
		{[]frame{
			{"runtime.scanobject", "mgcmark.go"},
			{"runtime.gcBgMarkWorker", "mgc.go"},
		}, "cpu.runtime.gc", nil},
		{[]frame{
			{"runtime.asyncPreempt", "preempt_amd64.s"},
			{"runtime.futex", "os_linux.go"},
		}, "cpu.runtime.other", []string{"cpu.runtime.preempt"}},
	} {
		if got := layerOf(c.frames); got != c.layer {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.layer)
		}
		if got := crossCutsOf(c.frames); !reflect.DeepEqual(got, c.cuts) {
			t.Errorf("crossCutsOf(%v) = %v, want %v", c.frames, got, c.cuts)
		}
	}
}

// TestParseTraces pins the reading of `go tool pprof -traces -lines`.
func TestParseTraces(t *testing.T) {
	text := `File: cnibench
Type: cpu
Duration: 1s, Total samples = 40ms ( 4.00%)
-----------+-------------------------------------------------------
      30ms   runtime.chanrecv /go/src/runtime/chan.go:595
             cni/internal/sim.(*Proc).resumeAndWait /r/internal/sim/proc.go:103 (inline)
             main.main /r/bench/main.go:90
-----------+-------------------------------------------------------
    1.01s   runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1412
-----------+-------------------------------------------------------
`
	stacks, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{30 * time.Millisecond, []frame{
			{"runtime.chanrecv", "/go/src/runtime/chan.go"},
			{"cni/internal/sim.(*Proc).resumeAndWait", "/r/internal/sim/proc.go"},
			{"main.main", "/r/bench/main.go"},
		}},
		{1010 * time.Millisecond, []frame{{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}}},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Fatalf("parsed %+v\nwant %+v", stacks, want)
	}
	shares := cpuShares(stacks)
	if got := shares["cpu.sim.proc"]; math.Abs(got-30.0/1040) > 1e-12 {
		t.Errorf("cpu.sim.proc = %g", got)
	}
	if got := shares["cpu.sim.handoff"]; math.Abs(got-30.0/1040) > 1e-12 {
		t.Errorf("cpu.sim.handoff = %g", got)
	}
}

// TestReduceProfile profiles simulator work in this process, reduces
// the profile with the toolchain's pprof and requires the partition to
// cover it and the simulator's layers to show in it.
func TestReduceProfile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cpu.pprof")
	w, _ := workloadByName("serve-rpc")
	build := w.inputs(1, true)
	err := profiled(file, func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			if pr := runPass(build, 0); pr.err != nil {
				t.Error(pr.err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := reduceProfile(file)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("partition sums to %g: %v", sum, shares)
	}
	if shares["cpu.sim.kernel"]+shares["cpu.sim.proc"]+shares["cpu.sim.handoff"] == 0 {
		t.Errorf("no simulator time in the profile: %v", shares)
	}
}
