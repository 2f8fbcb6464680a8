package main

// The traced run: the per-layer metrics of one workload. It repeats
// the untraced run's passes with and without a CPU profile, times the
// passes at the other shard count, and measures the unit costs.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed section of a pass. The setup, run and check spans
// of a pass share its id and have the pass span as their parent.
type span struct {
	Pass   int     `json:"pass"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func passSpans(id int, p *passResult, origin time.Time) []span {
	at := func(d time.Duration) float64 { return (p.start.Sub(origin) + d).Seconds() }
	return []span{
		{Pass: id, Name: "pass", Start: at(0), End: at(p.total())},
		{Pass: id, Name: "setup", Parent: "pass", Start: at(0), End: at(p.setup)},
		{Pass: id, Name: "run", Parent: "pass", Start: at(p.setup), End: at(p.setup + p.run)},
		{Pass: id, Name: "check", Parent: "pass", Start: at(p.setup + p.run), End: at(p.total())},
	}
}

func medianOf(passes []passResult, f func(*passResult) float64) float64 {
	v := make([]float64, len(passes))
	for i := range passes {
		v[i] = f(&passes[i])
	}
	return median(v)
}

type metricName struct{ name, unit string }

// perLayerMetrics lists every per-layer metric in report order.
func perLayerMetrics() []metricName {
	var out []metricName
	for _, n := range append(append([]string(nil), cpuLayers...), cpuCrossCuts...) {
		out = append(out, metricName{n, "share"})
	}
	out = append(out,
		metricName{"span.setup_s", "s"}, metricName{"span.run_s", "s"}, metricName{"span.check_s", "s"},
		metricName{"trace.overhead", "ratio"})
	for _, u := range unitCostTable {
		out = append(out, metricName{u.name, u.unit})
	}
	out = append(out, metricName{"sim.shard_speedup", "ratio"}, metricName{"sim.shard_parity", "bool"})
	out = append(out, exactCounts...)
	return append(out,
		metricName{"host.allocs_per_event", "1/event"},
		metricName{"host.alloc_mb_per_pass", "MB"},
		metricName{"host.gc_cycles_per_pass", "count"})
}

// traceOne makes the traced run of workload w and writes its profile,
// spans and layer metrics under o.out. The untraced and traced halves
// run the same passes, so their ratio is the tracing overhead. It also
// returns the model outcome of the last untraced pass.
func traceOne(w benchWorkload, o options) (*result, []sample, outcome, error) {
	var last outcome
	dir := filepath.Join(o.out, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, last, err
	}
	half := time.Duration(o.seconds) * time.Second / 2
	s := &session{name: w.name, build: w.inputs(o.seed, o.tiny), log: os.Stderr}
	s.warmUp()
	plain := s.timed(w.shards, half, 2)
	if len(plain) > 0 {
		last = plain[len(plain)-1].out
	}

	profPath := filepath.Join(dir, "cpu.pprof")
	var traced []passResult
	origin := time.Now()
	if err := profiled(profPath, func() { traced = s.timed(w.shards, half, 2) }); err != nil {
		return nil, nil, last, err
	}

	// The same passes at the other shard count. Their first digest is
	// their own reference; whether it equals the warm-up's is reported
	// as sim.shard_parity rather than failing the run.
	other := 2
	if w.shards > 0 {
		other = 0
	}
	alt := &session{name: fmt.Sprintf("%s@shards%d", w.name, other), build: s.build, log: os.Stderr}
	altPasses := alt.timed(other, half/2, 2)
	parity := 0.0
	if alt.refOK && s.refOK && alt.ref == s.ref {
		parity = 1
	}
	total := func(p *passResult) float64 { return p.total().Seconds() }
	s0, s2 := medianOf(plain, total), medianOf(altPasses, total)
	if w.shards > 0 {
		s0, s2 = s2, s0
	}

	sampleTime := unitSampleTime
	if o.tiny {
		sampleTime = time.Millisecond
	}
	units, err := unitCosts(sampleTime)
	if err != nil {
		return nil, nil, last, err
	}
	shares, err := reduceProfile(profPath)
	if err != nil {
		return nil, nil, last, err
	}

	values := map[string]float64{
		"span.setup_s":      medianOf(traced, func(p *passResult) float64 { return p.setup.Seconds() }),
		"span.run_s":        medianOf(traced, func(p *passResult) float64 { return p.run.Seconds() }),
		"span.check_s":      medianOf(traced, func(p *passResult) float64 { return p.check.Seconds() }),
		"trace.overhead":    div(medianOf(traced, total), medianOf(plain, total)),
		"sim.shard_speedup": div(s0, s2),
		"sim.shard_parity":  parity,
		"host.allocs_per_event": medianOf(plain, func(p *passResult) float64 {
			return div(float64(p.mallocs), float64(p.out.events))
		}),
		"host.alloc_mb_per_pass":  medianOf(plain, func(p *passResult) float64 { return float64(p.allocated) / (1 << 20) }),
		"host.gc_cycles_per_pass": medianOf(plain, func(p *passResult) float64 { return float64(p.gcs) }),
	}
	for _, m := range []map[string]float64{shares, units, last.counts} {
		for k, v := range m {
			values[k] = v
		}
	}
	var samples []sample
	for _, m := range perLayerMetrics() {
		samples = append(samples, sample{name: m.name, unit: m.unit, value: values[m.name]})
	}

	var spans []span
	for i := range traced {
		spans = append(spans, passSpans(i+1, &traced[i], origin)...)
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), spans); err != nil {
		return nil, nil, last, err
	}
	layers := map[string]metric{}
	for _, m := range samples {
		layers[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), layers); err != nil {
		return nil, nil, last, err
	}
	failed := s.failed + alt.failed
	res := &result{Correct: failed == 0, Attempted: s.attempted + alt.attempted, Failed: failed, Metrics: layers}
	return res, samples, last, nil
}

// profiled runs fn under the CPU profiler, writing the profile to file.
func profiled(file string, fn func()) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

func writeJSON(file string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}
