package apps

import (
	"fmt"
	"math"
	"sort"

	"cni/internal/apps/spmat"
	"cni/internal/cluster"
	"cni/internal/dsm"
)

// Cholesky is the fine-grained benchmark: right-looking supernodal
// sparse Cholesky factorization of a synthetic bcsstk-style SPD
// matrix. Supernodes (maximal runs of columns with nested structure)
// are the schedulable tasks, handed out through the bag-of-tasks;
// cross-supernode column updates are serialized by per-supernode
// locks, and a supernode enters the bag when its last external update
// lands (fan-out scheduling). Pages of the factor migrate from
// releaser to acquirer constantly, which is why the paper calls out
// receive caching as the big win here.
type Cholesky struct {
	Gen spmat.Gen

	A  *spmat.Sym
	Sy *spmat.Symbolic

	// Cost charges.
	UpdateCycles int64 // per modified entry beyond the memory accesses
	DivCycles    int64 // per scaled entry in cdiv
	SearchCycles int64 // per binary-search probe

	lvalBase int // word base of L's values
	nmodBase int // word base of the per-supernode dependency counters

	heads   []int32       // supernode head columns, ascending
	headIdx map[int32]int // head column -> dense supernode index
	nmod0   []int64       // initial external-update counts per supernode

	// oracle, when non-nil, cross-checks the shared dependency
	// counters against ground truth (debug builds of the tests).
	oracle []int64
}

// EnableOracle turns on the counter cross-check (testing aid).
func (ch *Cholesky) EnableOracle() {
	ch.oracle = append([]int64(nil), ch.nmod0...)
}

// NewCholesky builds the matrix and its symbolic factorization.
func NewCholesky(gen spmat.Gen) *Cholesky {
	// Per-entry charges for an in-order 166 MHz FP pipeline: a cmod
	// entry is a multiply-subtract plus two indirect loads and a store
	// through the sparse index structure; cdiv adds a divide. These
	// track the computation/communication balance the paper's Table 4
	// reports (computation is a quarter of the 8-processor total).
	ch := &Cholesky{Gen: gen, UpdateCycles: 32, DivCycles: 80, SearchCycles: 2}
	ch.A = gen.Build()
	ch.Sy = spmat.Analyze(ch.A)
	ch.heads = nil
	ch.headIdx = make(map[int32]int)
	for j := 0; j < ch.Sy.N; j++ {
		if ch.Sy.Super[j] == int32(j) {
			ch.headIdx[int32(j)] = len(ch.heads)
			ch.heads = append(ch.heads, int32(j))
		}
	}
	// Count external updates per supernode: one per (source column j,
	// target column i) pair with super(i) != super(j).
	ch.nmod0 = make([]int64, len(ch.heads))
	for j := 0; j < ch.Sy.N; j++ {
		sj := ch.Sy.Super[j]
		for _, i := range ch.Sy.Col(j)[1:] {
			si := ch.Sy.Super[i]
			if si != sj {
				ch.nmod0[ch.headIdx[si]]++
			}
		}
	}
	return ch
}

// Name implements App.
func (ch *Cholesky) Name() string { return fmt.Sprintf("cholesky-%s", ch.Gen.Name) }

// Supernodes reports the task count.
func (ch *Cholesky) Supernodes() int { return len(ch.heads) }

// Setup allocates the factor values and the dependency counters, and
// seeds the bag with the supernodes that have no external updates.
func (ch *Cholesky) Setup(g *dsm.Globals) {
	ch.lvalBase = g.Alloc(ch.Sy.NNZ())
	ch.nmodBase = g.Alloc(len(ch.heads))
	var initial []int
	for s, c := range ch.nmod0 {
		if c == 0 {
			initial = append(initial, s)
		}
	}
	sort.Ints(initial)
	g.SetTasks(initial, len(ch.heads))
}

// Init scatters A into L's structure and preloads the counters.
func (ch *Cholesky) Init(c *cluster.Cluster) {
	sy, a := ch.Sy, ch.A
	for j := 0; j < sy.N; j++ {
		rows, vals := a.Col(j)
		lrows := sy.Col(j)
		p := 0
		for k, i := range rows {
			for lrows[p] != i {
				p++
			}
			c.PreloadF64(ch.lvalBase+int(sy.ColPtr[j])+p, vals[k])
		}
	}
	for s, cnt := range ch.nmod0 {
		c.PreloadU64(ch.nmodBase+s, uint64(cnt))
	}
}

// cmod applies column j's outer-product update to column i; p is the
// position of L(i,j) within column j. Column j's rows from p on are
// sorted and, by the fill property, a subset of column i's, so one
// forward pointer t over column i finds every target. The simulated
// program still pays for a search per element (SearchCycles*8).
func (ch *Cholesky) cmod(w *dsm.Worker, j, p, i int32) {
	sy := ch.Sy
	cq := sy.ColPtr[j+1]
	t := sy.ColPtr[i]
	lij := w.ReadF64(ch.lvalBase + int(p))
	for q := p; q < cq; q++ {
		r := sy.RowIdx[q]
		for sy.RowIdx[t] < r {
			t++
		}
		w.Compute(ch.SearchCycles * 8)
		v := w.ReadF64(ch.lvalBase+int(t)) - lij*w.ReadF64(ch.lvalBase+int(q))
		w.WriteF64(ch.lvalBase+int(t), v)
		w.Compute(ch.UpdateCycles)
	}
}

// colsOf returns the half-open column range of supernode s.
func (ch *Cholesky) colsOf(s int) (int32, int32) {
	head := ch.heads[s]
	end := int32(ch.Sy.N)
	if s+1 < len(ch.heads) {
		end = ch.heads[s+1]
	}
	return head, end
}

// Body implements App: pull supernode tasks until the factorization
// completes.
func (ch *Cholesky) Body(w *dsm.Worker) {
	sy := ch.Sy
	for {
		s := w.NextTask()
		if s < 0 {
			break
		}
		head, end := ch.colsOf(s)
		// Acquire the supernode's own lock once: the grant carries the
		// write notices of every external updater's release, which is
		// the happens-before edge that makes their cmods visible (the
		// bag of tasks itself carries no consistency).
		w.Lock(int(head))
		w.Unlock(int(head))

		// Phase A: cdiv every column of the supernode and apply the
		// intra-supernode updates (no locks: this task owns them).
		for j := head; j < end; j++ {
			cp, cq := sy.ColPtr[j], sy.ColPtr[j+1]
			d := w.ReadF64(ch.lvalBase + int(cp))
			if d <= 0 {
				panic(fmt.Sprintf("cholesky: lost positive definiteness at column %d (pivot %g)", j, d))
			}
			d = math.Sqrt(d)
			w.WriteF64(ch.lvalBase+int(cp), d)
			w.Compute(ch.DivCycles)
			for p := cp + 1; p < cq; p++ {
				w.WriteF64(ch.lvalBase+int(p), w.ReadF64(ch.lvalBase+int(p))/d)
				w.Compute(ch.DivCycles)
			}
			for p := cp + 1; p < cq; p++ {
				i := sy.RowIdx[p]
				if si := sy.Super[i]; si < head || si >= end {
					continue
				}
				ch.cmod(w, j, p, i)
			}
		}

		// Phase B: external updates, batched per target supernode under
		// one column lock — the supernode-granularity sharing the paper
		// describes ("one page usually contains many columns").
		type pair struct{ j, p int32 } // source column j, position p in it; RowIdx[p] is the target column
		type batch struct {
			target int32 // target supernode head
			pairs  []pair
		}
		var batches []batch
		byTarget := map[int32]int{}
		for j := head; j < end; j++ {
			for p := sy.ColPtr[j] + 1; p < sy.ColPtr[j+1]; p++ {
				si := sy.Super[sy.RowIdx[p]]
				if si >= head && si < end {
					continue
				}
				bi, ok := byTarget[si]
				if !ok {
					bi = len(batches)
					byTarget[si] = bi
					batches = append(batches, batch{target: si})
				}
				batches[bi].pairs = append(batches[bi].pairs, pair{j, p})
			}
		}
		for _, b := range batches {
			w.Lock(int(b.target))
			for _, pr := range b.pairs {
				ch.cmod(w, pr.j, pr.p, sy.RowIdx[pr.p])
			}
			sIdx := ch.headIdx[b.target]
			left := w.ReadU64(ch.nmodBase+sIdx) - uint64(len(b.pairs))
			w.WriteU64(ch.nmodBase+sIdx, left)
			if ch.oracle != nil {
				ch.oracle[sIdx] -= int64(len(b.pairs))
				if ch.oracle[sIdx] != int64(left) {
					panic(fmt.Sprintf("cholesky: node %d sees counter %d = %d, truth %d (target snode %d)",
						w.Node(), sIdx, int64(left), ch.oracle[sIdx], b.target))
				}
			}
			w.Unlock(int(b.target))
			if left == 0 {
				w.PushTask(0, sIdx)
			}
		}
		w.TaskDone()
	}
	w.Barrier(1 << 20) // drain: everyone sees the completed factor
}

// Verify compares the parallel factor against the sequential
// reference (tolerantly: update order differs).
func (ch *Cholesky) Verify(c *cluster.Cluster) error {
	want := spmat.Factor(ch.A, ch.Sy)
	for p := range want {
		got := c.ReadF64(ch.lvalBase + p)
		if math.Abs(got-want[p]) > 1e-6*(1+math.Abs(want[p])) {
			return fmt.Errorf("cholesky %s: L value %d = %.12g, want %.12g",
				ch.Gen.Name, p, got, want[p])
		}
	}
	return nil
}
