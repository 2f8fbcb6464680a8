package experiments

// The parallel experiment harness. Every artifact of the evaluation is
// assembled from *points*: fully independent cluster simulations (one
// (Config, n, workload) run each), each owning its seeded RNG and
// simulator state. The generators in this package submit their points
// to a Runner and join the resulting futures in point order, so the
// rendered output is bit-identical whether the points execute on one
// worker or on GOMAXPROCS workers in any interleaving.
//
// The Runner also memoizes: identical points shared between artifacts
// (the lossless baselines FR1 re-verifies, the default-cache F13 point
// that equals F2's, ...) execute once and every consumer joins the
// same future. Config contains only comparable fields, so a point is
// keyed directly by its fully-mutated Config plus the node count and a
// point-kind tag — no fingerprinting or serialization involved.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cni/internal/config"
)

// Progress is one progress event of a Runner: how many points have
// completed out of those planned so far, and which artifact the event
// belongs to. Total grows as generators plan work, so Done/Total is a
// live fraction, not a fixed denominator. The callback receiving these
// events is invoked from worker goroutines and must be safe for
// concurrent use.
type Progress struct {
	Spec  string // artifact being generated ("F2"); "" for direct calls
	Done  int    // points completed so far
	Total int    // points submitted so far (deduplicated)
}

// pointKey names one independent simulation point. Config has only
// comparable fields, so the struct is usable as a map key as-is; two
// points with equal keys are the same deterministic computation.
type pointKey struct {
	cfg  config.Config
	n    int    // cluster/fabric node count
	what string // point kind + workload identity, e.g. "app/jacobi/128x6"
}

// canceled wraps a context error for transport through panic/recover
// from a generator goroutine back to RunSpec.
type canceled struct{ err error }

// future is the pending result of one point. Exactly one of val /
// panicval is meaningful once done is closed.
type future struct {
	done     chan struct{}
	val      any
	panicval any // non-nil: the point panicked (or was canceled); rethrown by wait
}

func (f *future) resolve(v any) {
	f.val = v
	close(f.done)
}

func (f *future) resolvePanic(p any) {
	f.panicval = p
	close(f.done)
}

// wait blocks until the point has run and returns its value,
// re-panicking if the point itself panicked or the run was canceled.
func (f *future) wait() any {
	<-f.done
	if f.panicval != nil {
		panic(f.panicval)
	}
	return f.val
}

// Future is the typed pending result of one submitted point.
type Future[T any] struct{ f *future }

// Wait blocks until the point has executed and returns its result.
func (x Future[T]) Wait() T { return x.f.wait().(T) }

// task is one queued point execution.
type task struct {
	spec string
	f    *future
	run  func() any
}

// Runner executes simulation points on a pool of workers with
// memoization. A single Runner may be shared across many artifacts
// (RunSuite does) so that points common to several figures run once.
// All methods are safe for concurrent use.
type Runner struct {
	ctx      context.Context
	jobs     int
	progress func(Progress)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task
	memo   map[pointKey]*future
	closed bool
	done   int
	total  int
	hits   int // memo hits: points some artifact asked for that were already planned

	wg sync.WaitGroup
}

// NewRunner starts a Runner with o.Jobs workers (GOMAXPROCS when
// o.Jobs <= 0) that reports to o.Progress and aborts outstanding
// points when ctx is canceled. Call Close when done with it.
func NewRunner(ctx context.Context, o Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		ctx:      ctx,
		jobs:     jobs,
		progress: o.Progress,
		memo:     map[pointKey]*future{},
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go r.worker()
	}
	// Wake the workers when the context dies so queued points resolve
	// promptly instead of waiting for a submission.
	if ctx.Done() != nil {
		context.AfterFunc(ctx, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
	}
	return r
}

// Jobs reports the worker count.
func (r *Runner) Jobs() int { return r.jobs }

// Counts reports how many points have completed and how many distinct
// points have been submitted so far.
func (r *Runner) Counts() (done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done, r.total
}

// MemoHits reports how many point requests were served from the memo
// table instead of executing again (identical points shared between
// artifacts, or re-requested within one).
func (r *Runner) MemoHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// Close stops the workers after the queue drains (or immediately once
// the context is canceled) and waits for them to exit. Futures still
// queued resolve as canceled.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// submit enqueues one point, deduplicating against the memo table.
func (r *Runner) submit(spec string, key pointKey, run func() any) *future {
	r.mu.Lock()
	if f, ok := r.memo[key]; ok {
		r.hits++
		r.mu.Unlock()
		return f
	}
	f := &future{done: make(chan struct{})}
	r.memo[key] = f
	r.total++
	ev := Progress{Spec: spec, Done: r.done, Total: r.total}
	if r.closed || r.ctx.Err() != nil {
		// Submission after Close or cancellation: the workers may
		// already have drained and exited, so resolve as canceled here
		// rather than leave a future no one will ever run.
		err := r.ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		r.mu.Unlock()
		f.resolvePanic(canceled{err})
		return f
	}
	r.queue = append(r.queue, &task{spec: spec, f: f, run: run})
	r.cond.Signal()
	r.mu.Unlock()
	if r.progress != nil {
		r.progress(ev)
	}
	return f
}

// worker is one pool goroutine: pop, execute (capturing panics into
// the future), repeat. A point is counted before its future resolves,
// so a caller that has joined every future of an artifact reads them
// all in Counts.
func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed && r.ctx.Err() == nil {
			r.cond.Wait()
		}
		if len(r.queue) == 0 && (r.closed || r.ctx.Err() != nil) {
			r.mu.Unlock()
			return
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			continue
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()

		if err := r.ctx.Err(); err != nil {
			r.countDone(t.spec)
			t.f.resolvePanic(canceled{err})
			continue
		}
		r.execute(t)
	}
}

// execute runs one point, converting a panic inside the model into a
// resolved-with-panic future so a worker never crashes the process,
// and counts the point before resolving its future.
func (r *Runner) execute(t *task) {
	v, p := t.runRecovered()
	r.countDone(t.spec)
	if p != nil {
		t.f.resolvePanic(p)
		return
	}
	t.f.resolve(v)
}

// runRecovered runs the point, returning its panic value (nil if it
// returned normally) instead of unwinding.
func (t *task) runRecovered() (v, p any) {
	defer func() { p = recover() }()
	return t.run(), nil
}

func (r *Runner) countDone(spec string) {
	r.mu.Lock()
	r.done++
	ev := Progress{Spec: spec, Done: r.done, Total: r.total}
	r.mu.Unlock()
	if r.progress != nil {
		r.progress(ev)
	}
}

// submitPoint routes a point either to o's Runner or — when the
// generator was called directly without one (the legacy sequential
// path) — runs it inline, preserving the seed's synchronous semantics
// including undisturbed panic propagation.
func submitPoint[T any](o Options, key pointKey, run func() T) Future[T] {
	if o.runner == nil {
		f := &future{done: make(chan struct{})}
		f.resolve(run())
		return Future[T]{f}
	}
	return Future[T]{o.runner.submit(o.spec, key, func() any { return run() })}
}

// RunSpec executes one artifact on a fresh Runner with o.Jobs workers,
// honoring ctx. The rendered text is bit-identical to the sequential
// path; a panic anywhere in the model surfaces as an error rather
// than crashing, and cancellation returns ctx's error promptly.
func RunSpec(ctx context.Context, s Spec, o Options) (string, error) {
	r := NewRunner(ctx, o)
	defer r.Close()
	return r.RunSpec(s, o)
}

// RunSpec executes one artifact against this runner (sharing its
// workers and memo table with any other artifacts run on it).
func (r *Runner) RunSpec(s Spec, o Options) (out string, err error) {
	o.runner = r
	o.spec = s.ID
	defer func() {
		p := recover()
		switch p := p.(type) {
		case nil:
		case canceled:
			err = p.err
		default:
			err = fmt.Errorf("experiments: %s failed: %v", s.ID, p)
		}
	}()
	if s.Figure != nil {
		return RenderFigure(s.Figure(o)), nil
	}
	if s.Table != nil {
		return RenderTable(s.Table(o)), nil
	}
	return "", fmt.Errorf("experiments: spec %s has no generator", s.ID)
}

// RunSuite executes every spec on one shared Runner: each artifact's
// generator runs concurrently, feeding the worker pool, and points
// shared between artifacts are computed once. Outputs come back in
// spec order and are bit-identical to running each spec sequentially.
// The first error (cancellation included) is returned alongside
// whatever outputs completed.
func RunSuite(ctx context.Context, specs []Spec, o Options) ([]string, error) {
	r := NewRunner(ctx, o)
	defer r.Close()
	outs := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			outs[i], errs[i] = r.RunSpec(s, o)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}
