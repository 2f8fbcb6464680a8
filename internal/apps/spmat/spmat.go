// Package spmat provides the sparse-matrix substrate for the Cholesky
// benchmark: a deterministic generator of symmetric positive definite
// matrices shaped like the Harwell-Boeing structural engineering
// matrices the paper uses (bcsstk14, bcsstk15), a symbolic Cholesky
// factorization (elimination tree and fill-in), and a sequential
// numeric factorization used as the correctness reference for the
// parallel DSM version.
//
// The real bcsstk files are not redistributable here, so BCSSTK14 and
// BCSSTK15 are synthetic stand-ins matched in order and nonzero count
// (1806/~32.6k and 3948/~60.9k stored entries): banded skeletons with
// clustered off-band blocks, the profile structure that gives these
// problems their supernodal character. DESIGN.md records this
// substitution.
package spmat

import (
	"fmt"
	"math"
	"sort"

	"cni/internal/sim"
)

// Sym is a sparse symmetric matrix in lower-triangular CSC form:
// column j's stored entries are the rows >= j.
type Sym struct {
	N      int
	ColPtr []int32 // len N+1
	RowIdx []int32 // len nnz, sorted within each column, first entry is j
	Val    []float64
	Name   string
}

// NNZ reports the stored (lower triangle) nonzero count.
func (s *Sym) NNZ() int { return len(s.RowIdx) }

// Col returns the row indices and values of column j.
func (s *Sym) Col(j int) ([]int32, []float64) {
	lo, hi := s.ColPtr[j], s.ColPtr[j+1]
	return s.RowIdx[lo:hi], s.Val[lo:hi]
}

// Gen describes a synthetic structural-engineering-style matrix.
type Gen struct {
	Name     string
	N        int
	Band     int     // half bandwidth of the dense-ish band
	BandFill float64 // fraction of band positions present
	Blocks   int     // number of off-band coupling blocks
	BlockDim int     // rows/cols per coupling block
	Seed     uint64
}

// BCSSTK14 is the stand-in for the 1806-node roof of the Omni Coliseum
// (bcsstk14: n=1806, ~32.6k stored nonzeros).
func BCSSTK14() Gen {
	return Gen{Name: "bcsstk14", N: 1806, Band: 40, BandFill: 0.85, Blocks: 60, BlockDim: 6, Seed: 14}
}

// BCSSTK15 is the stand-in for the 3948-node offshore platform module
// (bcsstk15: n=3948, ~60.9k stored nonzeros... the generator targets
// the same order and a comparable profile).
func BCSSTK15() Gen {
	return Gen{Name: "bcsstk15", N: 3948, Band: 52, BandFill: 0.62, Blocks: 130, BlockDim: 6, Seed: 15}
}

// Small returns a small matrix for tests and -quick runs.
func Small(n int) Gen {
	return Gen{Name: fmt.Sprintf("small%d", n), N: n, Band: 8, BandFill: 0.5, Blocks: n / 32, BlockDim: 3, Seed: uint64(n)}
}

// Build generates the matrix. The result is symmetric positive
// definite by construction (strict diagonal dominance).
func (g Gen) Build() *Sym {
	rng := sim.NewRNG(g.Seed*0x9e37 + 12345)
	cols := make([]map[int32]float64, g.N)
	for j := range cols {
		cols[j] = map[int32]float64{int32(j): 0} // diagonal placeholder
	}
	put := func(i, j int32, v float64) {
		if i == j {
			return
		}
		if i < j {
			i, j = j, i
		}
		if int(i) >= g.N {
			return
		}
		cols[j][i] = v
	}
	// Dense-ish band: the discretized elements along the structure.
	for j := 0; j < g.N; j++ {
		for d := 1; d <= g.Band; d++ {
			i := j + d
			if i >= g.N {
				break
			}
			if rng.Float64() < g.BandFill/(1+float64(d)/16) {
				put(int32(i), int32(j), -1+2*rng.Float64())
			}
		}
	}
	// Off-band coupling blocks: braces and ties between distant nodes.
	for b := 0; b < g.Blocks; b++ {
		r0 := rng.Intn(g.N)
		c0 := rng.Intn(g.N)
		for x := 0; x < g.BlockDim; x++ {
			for y := 0; y < g.BlockDim; y++ {
				put(int32(r0+x), int32(c0+y), -1+2*rng.Float64())
			}
		}
	}
	// Assemble CSC (sorted, so every downstream float accumulation is
	// order-deterministic) and make the result diagonally dominant.
	sorted := make([][]int32, g.N)
	for j := 0; j < g.N; j++ {
		rows := make([]int32, 0, len(cols[j]))
		for i := range cols[j] {
			rows = append(rows, i)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
		sorted[j] = rows
	}
	rowSum := make([]float64, g.N)
	for j := 0; j < g.N; j++ {
		for _, i := range sorted[j] {
			if i != int32(j) {
				av := math.Abs(cols[j][i])
				rowSum[j] += av
				rowSum[i] += av
			}
		}
	}
	s := &Sym{N: g.N, Name: g.Name}
	s.ColPtr = make([]int32, g.N+1)
	for j := 0; j < g.N; j++ {
		s.ColPtr[j] = int32(len(s.RowIdx))
		for _, i := range sorted[j] {
			v := cols[j][i]
			if i == int32(j) {
				v = rowSum[j]*1.1 + 4 // strict dominance -> SPD
			}
			s.RowIdx = append(s.RowIdx, i)
			s.Val = append(s.Val, v)
		}
	}
	s.ColPtr[g.N] = int32(len(s.RowIdx))
	return s
}

// Symbolic is the result of symbolic factorization: the structure of
// the Cholesky factor L (with fill-in) and the elimination tree.
type Symbolic struct {
	N      int
	Parent []int32 // elimination tree; -1 at roots
	ColPtr []int32 // L's column pointers
	RowIdx []int32 // L's row indices, sorted, first entry of column j is j
	// Super[j] is the first column of the supernode containing j:
	// maximal runs of columns with nested structure.
	Super []int32
}

// NNZ reports the nonzero count of L.
func (sy *Symbolic) NNZ() int { return len(sy.RowIdx) }

// Col returns the row indices of L's column j.
func (sy *Symbolic) Col(j int) []int32 {
	return sy.RowIdx[sy.ColPtr[j]:sy.ColPtr[j+1]]
}

// Analyze computes the elimination tree and the full fill pattern of
// the Cholesky factor (classic row-merge symbolic factorization), then
// identifies supernodes.
func Analyze(a *Sym) *Symbolic {
	n := a.N
	sy := &Symbolic{N: n}
	sy.Parent = make([]int32, n)

	// Column structures of L, built column by column: struct(L_j) =
	// struct(A_j) U union of children's structs (minus their heads).
	structs := make([][]int32, n)
	children := make([][]int32, n)
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		set := map[int32]bool{}
		for _, i := range rows {
			if i >= int32(j) {
				set[i] = true
			}
		}
		for _, c := range children[j] {
			for _, i := range structs[c] {
				if i > int32(j) {
					set[i] = true
				}
			}
		}
		set[int32(j)] = true
		col := make([]int32, 0, len(set))
		for i := range set {
			col = append(col, i)
		}
		sort.Slice(col, func(x, y int) bool { return col[x] < col[y] })
		structs[j] = col
		sy.Parent[j] = -1
		if len(col) > 1 {
			p := col[1] // first off-diagonal row = etree parent
			sy.Parent[j] = p
			children[p] = append(children[p], int32(j))
		}
	}
	sy.ColPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		sy.ColPtr[j] = int32(len(sy.RowIdx))
		sy.RowIdx = append(sy.RowIdx, structs[j]...)
	}
	sy.ColPtr[n] = int32(len(sy.RowIdx))

	// Supernodes: column j joins j-1's supernode when parent(j-1) == j
	// and struct(j) == struct(j-1) minus its head.
	sy.Super = make([]int32, n)
	for j := 0; j < n; j++ {
		sy.Super[j] = int32(j)
		if j == 0 {
			continue
		}
		prev := structs[j-1]
		cur := structs[j]
		if sy.Parent[j-1] == int32(j) && len(prev) == len(cur)+1 {
			same := true
			for k := 1; k < len(prev); k++ {
				if prev[k] != cur[k-1] {
					same = false
					break
				}
			}
			if same {
				sy.Super[j] = sy.Super[j-1]
			}
		}
	}
	return sy
}

// Factor computes the numeric Cholesky factor sequentially (left-
// looking, full fill structure) and returns L's values aligned with
// sy.RowIdx. It is the reference the parallel DSM factorization is
// checked against.
func Factor(a *Sym, sy *Symbolic) []float64 {
	n := a.N
	lval := make([]float64, sy.NNZ())
	// Scatter A into L's structure.
	for j := 0; j < n; j++ {
		rows, vals := a.Col(j)
		t := sy.ColPtr[j]
		for k, i := range rows {
			t = sy.seek(t, int32(j), i)
			lval[t] = vals[k]
		}
	}
	// Right-looking factorization over the fill structure.
	for j := 0; j < n; j++ {
		d := lval[sy.ColPtr[j]]
		if d <= 0 {
			panic(fmt.Sprintf("spmat: matrix %s not positive definite at column %d (pivot %g)", a.Name, j, d))
		}
		d = math.Sqrt(d)
		lval[sy.ColPtr[j]] = d
		for p := sy.ColPtr[j] + 1; p < sy.ColPtr[j+1]; p++ {
			lval[p] /= d
		}
		// Update every column i in struct(j) with the outer product.
		for p := sy.ColPtr[j] + 1; p < sy.ColPtr[j+1]; p++ {
			i := sy.RowIdx[p]
			lij := lval[p]
			t := sy.ColPtr[i]
			for q := p; q < sy.ColPtr[j+1]; q++ {
				t = sy.seek(t, i, sy.RowIdx[q])
				lval[t] -= lij * lval[q]
			}
		}
	}
	return lval
}

// seek advances position t within column col to the entry of row r.
// Callers walk rows in ascending order, and a column's rows are
// sorted, so one forward pointer per column finds them all; reaching
// the end of the column means r is missing from the fill pattern.
func (sy *Symbolic) seek(t, col, r int32) int32 {
	end := sy.ColPtr[col+1]
	for t < end && sy.RowIdx[t] < r {
		t++
	}
	if t == end || sy.RowIdx[t] != r {
		panic(fmt.Sprintf("spmat: fill pattern missing (%d,%d)", r, col))
	}
	return t
}
