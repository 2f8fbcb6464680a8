// Command experiments regenerates the tables and figures of the CNI
// paper's evaluation.
//
// Usage:
//
//	experiments [-quick] [-only T2,F14] [-procs 1,2,4,8] [-j N] [-shards N] [-progress=false]
//
// Without flags it runs the full paper-scale suite (minutes); -quick
// shrinks the inputs to run in seconds. Output is plain text, one
// artifact after another, in paper order.
//
// The suite runs on the parallel harness: every artifact's independent
// simulation points fan across -j workers (default GOMAXPROCS) on one
// shared pool, points common to several artifacts execute once, and
// the rendered output is bit-identical to a sequential (-j 1) run.
// Progress (points done / planned, current artifact) streams to stderr
// while the run is live; Ctrl-C cancels the suite promptly.
//
// -shards N additionally splits each simulation point across N
// conservative-parallel kernel shards — a second, orthogonal axis of
// parallelism that is also bit-identical at any count. The two axes
// share the machine: jobs x shards is capped at GOMAXPROCS by reducing
// jobs, never shards (the effective split is printed at startup); 0
// and 1 both run one shard. DSM points clamp to one shard; serving and
// fabric points shard.
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// run (CPU over the whole run, live heap at exit) for digging into
// where the harness and the kernels spend their time. The simulator's
// own speed is measured by the benchmark under bench/ (bash
// bench/run.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cni"
)

// progressPrinter renders the live points-done line on stderr. It is
// called from harness worker goroutines, so it locks.
type progressPrinter struct {
	mu      sync.Mutex
	live    bool // a progress line is on screen
	enabled bool
}

func (p *progressPrinter) update(ev cni.ExpProgress) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "\r  %d/%d points [%s] ", ev.Done, ev.Total, ev.Spec)
	p.live = true
}

// clear erases the progress line so artifact output starts clean.
func (p *progressPrinter) clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live {
		fmt.Fprintf(os.Stderr, "\r%*s\r", 40, "")
		p.live = false
	}
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down inputs (seconds instead of minutes)")
	only := flag.String("only", "", "comma-separated artifact ids to run (e.g. T2,F14)")
	procs := flag.String("procs", "", "override processor counts for scaling figures (e.g. 1,2,4,8)")
	jobs := flag.Int("j", 0, "simulation workers (0 = GOMAXPROCS; results identical at any value)")
	progress := flag.Bool("progress", true, "stream live point counts to stderr")
	shards := flag.Int("shards", 0, "kernel shards per simulation point (0 or 1 = one shard; results identical at any count)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	// run returns an exit code instead of calling os.Exit so the
	// profile writers below always get to flush.
	code := run(*quick, *only, *procs, *jobs, *shards, *progress, *cpuprofile)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			code = 1
		} else {
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				code = 1
			}
			f.Close()
		}
	}
	os.Exit(code)
}

func run(quick bool, only, procsCSV string, jobs, shards int, progress bool, cpuprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
	}
	if shards < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -shards must be >= 0\n")
		return 2
	}

	printer := &progressPrinter{enabled: progress}
	o := cni.ExpOptions{Quick: quick, Jobs: jobs, Shards: shards, Progress: printer.update}
	o, parallelism := o.EffectiveParallelism()
	fmt.Fprintf(os.Stderr, "experiments: %s\n", parallelism)
	if procsCSV != "" {
		for _, s := range strings.Split(procsCSV, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 || p > 32 {
				fmt.Fprintf(os.Stderr, "experiments: bad -procs entry %q\n", s)
				return 2
			}
			o.Procs = append(o.Procs, p)
		}
	}

	specs := cni.Experiments()
	if only != "" {
		var keep []cni.ExpSpec
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			spec, ok := cni.FindExperiment(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q\n", id)
				return 2
			}
			keep = append(keep, spec)
		}
		specs = keep
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One shared pool for the whole suite: points common to several
	// artifacts run once, and every artifact's points interleave across
	// the workers. Results stream out in paper order as each artifact's
	// final point lands.
	runner := cni.NewExperimentRunner(ctx, o)
	defer runner.Close()

	type outcome struct {
		out  string
		err  error
		took time.Duration
	}
	results := make([]chan outcome, len(specs))
	start := time.Now()
	for i, spec := range specs {
		results[i] = make(chan outcome, 1)
		go func(i int, spec cni.ExpSpec) {
			t0 := time.Now()
			out, err := runner.RunSpec(spec, o)
			results[i] <- outcome{out: out, err: err, took: time.Since(t0)}
		}(i, spec)
	}

	failed := false
	for i, spec := range specs {
		r := <-results[i]
		printer.clear()
		if r.err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "experiments: canceled: %v\n", ctx.Err())
				return 1
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", spec.ID, r.err)
			failed = true
			continue
		}
		fmt.Print(r.out)
		fmt.Printf("  [%s ready after %.1fs]\n\n", spec.ID, r.took.Seconds())
	}
	printer.clear()
	if failed {
		return 1
	}
	_, total := runner.Counts()
	fmt.Fprintf(os.Stderr, "experiments: %d artifacts, %d points run, %d reused from memo, %.1fs\n",
		len(specs), total, runner.MemoHits(), time.Since(start).Seconds())
	return 0
}
