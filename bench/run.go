package main

// One workload run in this process: a warm-up pass, then timed passes
// of fixed work until the run's time is up.

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// passResult is one pass: its three spans and what its check found.
type passResult struct {
	start              time.Time
	setup, run, check  time.Duration
	out                outcome
	err                error
	mallocs, allocated uint64 // heap objects and bytes allocated during the pass
	gcs                uint32 // GC cycles completed during the pass
}

func (p *passResult) total() time.Duration { return p.setup + p.run + p.check }

// runPass sets up, runs and checks one machine. A panic anywhere on the
// calling goroutine — a deadlocked cluster, a failed model assertion,
// a panicking shard re-raised by the window driver — fails the pass
// instead of the process.
func runPass(build builder, shards int) (pr passResult) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		if r := recover(); r != nil {
			pr.err = fmt.Errorf("panic: %v", r)
		}
		runtime.ReadMemStats(&m1)
		pr.mallocs = m1.Mallocs - m0.Mallocs
		pr.allocated = m1.TotalAlloc - m0.TotalAlloc
		pr.gcs = m1.NumGC - m0.NumGC
	}()
	pr.start = time.Now()
	m, err := build(shards)
	pr.setup = time.Since(pr.start)
	if err != nil {
		pr.err = fmt.Errorf("setup: %w", err)
		return pr
	}
	m.run()
	pr.run = time.Since(pr.start) - pr.setup
	pr.out, pr.err = m.check()
	pr.check = time.Since(pr.start) - pr.setup - pr.run
	return pr
}

// session counts one workload's passes. The first successful pass's
// model digest is the reference every later pass must reproduce.
type session struct {
	name      string
	build     builder
	ref       uint64
	refOK     bool
	attempted int
	failed    int
	log       io.Writer       // failure reports
	probes    []time.Duration // clock probes, one before each pass
}

// pass runs one pass and reports whether it succeeded. The heap is
// collected first, so every pass starts from the same garbage-free
// state rather than paying for its predecessor's garbage, and the clock
// is probed just before the pass.
func (s *session) pass(shards int) (passResult, bool) {
	runtime.GC()
	s.probes = append(s.probes, probeClock())
	pr := runPass(s.build, shards)
	s.attempted++
	if pr.err == nil && s.refOK && pr.out.digest != s.ref {
		pr.err = fmt.Errorf("model digest %016x at shards %d differs from the reference %016x", pr.out.digest, shards, s.ref)
	}
	if pr.err != nil {
		s.failed++
		fmt.Fprintf(s.log, "%s: pass %d failed: %v\n", s.name, s.attempted, pr.err)
		return pr, false
	}
	if !s.refOK {
		s.ref, s.refOK = pr.out.digest, true
	}
	return pr, true
}

// warmUp runs the discarded first pass. It runs at shards 0, so for a
// sharded workload the digest check is also a shard-parity check.
func (s *session) warmUp() { s.pass(0) }

// timed runs passes at the given shard count until d has passed and at
// least min passes were attempted, returning the successful ones.
func (s *session) timed(shards int, d time.Duration, min int) []passResult {
	var ok []passResult
	start := time.Now()
	for n := 0; n < min || time.Since(start) < d; n++ {
		if pr, good := s.pass(shards); good {
			ok = append(ok, pr)
		}
	}
	return ok
}

// The clock of a shared host drifts: turbo and power management follow
// the load of the machine's other tenants, and on the reference host
// every timing of a run moves with it by up to ±10% over minutes. A
// probe times a fixed chain of dependent arithmetic that touches no
// memory, so its time measures the clock alone. The lower quartile of a
// run's probes stands for the clock its undisturbed passes ran at; the
// fastest probe alone would follow a single short burst of turbo.
// Timings are reported scaled to the reference clock, the one at which
// the probe takes refProbe.
const (
	probeIters = 10_000_000
	refProbe   = 20 * time.Millisecond // about 3 GHz on the reference host
)

var probeSink uint64

func probeClock() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// clockScale is the factor that turns this run's timings into
// reference-clock timings.
func (s *session) clockScale() float64 {
	if len(s.probes) == 0 {
		return 1
	}
	v := slices.Clone(s.probes)
	slices.Sort(v)
	return div(refProbe.Seconds(), v[(len(v)-1)/4].Seconds())
}

// setupSamples is how many machine builds a run times for setup_s. A
// serving workload builds its machine in well under a millisecond, so
// a median over the few timed passes alone would wander from run to
// run; setups makes up the number with builds it discards unrun.
const setupSamples = 31

// setups returns the setup times of the timed passes plus those of as
// many extra builds as it takes to reach setupSamples. Each build
// starts, like a pass, from a collected heap. A failed build counts as
// a failed pass.
func (s *session) setups(shards int, passes []passResult) []float64 {
	v := make([]float64, 0, setupSamples)
	for i := range passes {
		v = append(v, passes[i].setup.Seconds())
	}
	for len(v) < setupSamples {
		runtime.GC()
		start := time.Now()
		_, err := s.build(shards)
		d := time.Since(start)
		if err != nil {
			s.attempted++
			s.failed++
			fmt.Fprintf(s.log, "%s: setup failed: %v\n", s.name, err)
			return v
		}
		v = append(v, d.Seconds())
	}
	return v
}

// sample is one metric's values within a run.
type sample struct {
	name, unit string
	values     []float64 // as measured, before clock scaling
	value      float64   // the reported value
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// div is a/b, or 0 when b is 0, so an empty sample set never produces a
// value JSON cannot encode.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the end-to-end metrics from a run's timed passes and
// its setup times, with timings scaled to the reference clock by scale.
//
// pass_s is the fastest pass, not the median: other tenants of a shared
// host slow a pass, never speed it up, in bursts of one to several
// seconds, so the fastest pass is the run's least disturbed cost; the
// spreads README.md reports show the difference. events_per_s is the
// fastest pass's events over its time; setup_s is the median setup.
func endToEnd(passes []passResult, setup []float64, scale float64) []sample {
	var pass, rate []float64
	var fastest *passResult
	for i := range passes {
		p := &passes[i]
		pass = append(pass, p.total().Seconds())
		rate = append(rate, float64(p.out.events)/p.total().Seconds())
		if fastest == nil || p.total() < fastest.total() {
			fastest = p
		}
	}
	ps := sample{name: "pass_s", unit: "s", values: pass}
	eps := sample{name: "events_per_s", unit: "1/s", values: rate}
	if fastest != nil {
		ps.value = fastest.total().Seconds() * scale
		eps.value = div(float64(fastest.out.events), ps.value)
	}
	rss := peakRSSMB()
	return []sample{
		ps, eps,
		{name: "setup_s", unit: "s", values: setup, value: median(setup) * scale},
		{name: "peak_rss_mb", unit: "MB", values: []float64{rss}, value: rss},
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
