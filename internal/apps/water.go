package apps

import (
	"fmt"
	"math"

	"cni/internal/cluster"
	"cni/internal/dsm"
)

// Water is the medium-grained benchmark, a SPLASH-style molecular
// dynamics step: O(n^2) pairwise short-range forces with a cutoff,
// computed by the half-shell method, with the paper's modification
// ([3] in the paper) of postponing molecule updates to the end of the
// iteration — each node accumulates force contributions privately and
// applies them under per-molecule locks, then barriers, then the owner
// integrates its own molecules. Run for 2 steps like the paper.
type Water struct {
	M     int // molecules (paper: 64, 216, 343)
	Steps int

	// PairCycles is the computation charge per evaluated pair;
	// IntegrateCycles per molecule integration.
	PairCycles      int64
	IntegrateCycles int64

	base int // word base of the molecule array
}

// molWords is the shared footprint of one molecule: position(3),
// velocity(3), force(3) and the remaining state of the SPLASH record
// (rounded to 24 words = 192 bytes).
const molWords = 24

// Cutoff radius squared for the force computation.
const waterCutoff2 = 6.25

// NewWater returns a Water instance with m molecules.
func NewWater(m, steps int) *Water {
	// A SPLASH Water pair interaction is a few hundred FLOPs (3x3 atom
	// distances, the potential and its gradient); the predictor-
	// corrector integration is likewise heavy.
	return &Water{M: m, Steps: steps, PairCycles: 700, IntegrateCycles: 400}
}

// Name implements App.
func (wa *Water) Name() string { return fmt.Sprintf("water-%d", wa.M) }

// Setup allocates the molecule array; the default block home
// distribution aligns homes with molecule ownership.
func (wa *Water) Setup(g *dsm.Globals) {
	wa.base = g.Alloc(wa.M * molWords)
}

// initPos places molecule i on a jittered cubic lattice.
func initPos(i int) (float64, float64, float64) {
	side := 1
	for side*side*side < i+1 {
		side++
	}
	x := i % side
	y := (i / side) % side
	z := i / (side * side)
	j := func(k int) float64 { return 0.1 * math.Sin(float64(i*7+k*13)) }
	return 1.8*float64(x) + j(0), 1.8*float64(y) + j(1), 1.8*float64(z) + j(2)
}

// Init preloads lattice positions and zero velocities/forces.
func (wa *Water) Init(c *cluster.Cluster) {
	for i := 0; i < wa.M; i++ {
		x, y, z := initPos(i)
		b := wa.base + i*molWords
		c.PreloadF64(b+0, x)
		c.PreloadF64(b+1, y)
		c.PreloadF64(b+2, z)
	}
}

// molRange is this node's owned molecule range [lo, hi).
func (wa *Water) molRange(node, n int) (int, int) {
	lo := node * wa.M / n
	hi := (node + 1) * wa.M / n
	return lo, hi
}

// ljForce computes the pair force between positions, zero beyond the
// cutoff.
func ljForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64) {
	dx, dy, dz := xi-xj, yi-yj, zi-zj
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= waterCutoff2 || r2 == 0 {
		return 0, 0, 0
	}
	inv := 1.0 / r2
	inv3 := inv * inv * inv
	f := 24 * inv * (2*inv3*inv3 - inv3) * 1e-3
	return f * dx, f * dy, f * dz
}

// Body implements App.
func (wa *Water) Body(w *dsm.Worker) {
	node, n := w.Node(), w.Nodes()
	lo, hi := wa.molRange(node, n)
	acc := make([]float64, 3*wa.M) // private force accumulators
	touched := make([]bool, wa.M)

	bid := 0
	for step := 0; step < wa.Steps; step++ {
		// Phase 1: half-shell pair forces for owned molecules.
		for i := lo; i < hi; i++ {
			bi := wa.base + i*molWords
			xi := w.ReadF64(bi + 0)
			yi := w.ReadF64(bi + 1)
			zi := w.ReadF64(bi + 2)
			for d := 1; d <= wa.M/2; d++ {
				jm := (i + d) % wa.M
				if wa.M%2 == 0 && d == wa.M/2 && i >= wa.M/2 {
					break // each even-M antipodal pair counted once
				}
				bj := wa.base + jm*molWords
				fx, fy, fz := ljForce(xi, yi, zi,
					w.ReadF64(bj+0), w.ReadF64(bj+1), w.ReadF64(bj+2))
				w.Compute(wa.PairCycles)
				if fx == 0 && fy == 0 && fz == 0 {
					continue
				}
				acc[3*i+0] += fx
				acc[3*i+1] += fy
				acc[3*i+2] += fz
				acc[3*jm+0] -= fx
				acc[3*jm+1] -= fy
				acc[3*jm+2] -= fz
				touched[i] = true
				touched[jm] = true
			}
		}
		// Phase 2: postponed updates under per-molecule locks.
		for m := 0; m < wa.M; m++ {
			if !touched[m] {
				continue
			}
			bf := wa.base + m*molWords + 6
			w.Lock(m)
			w.WriteF64(bf+0, w.ReadF64(bf+0)+acc[3*m+0])
			w.WriteF64(bf+1, w.ReadF64(bf+1)+acc[3*m+1])
			w.WriteF64(bf+2, w.ReadF64(bf+2)+acc[3*m+2])
			w.Unlock(m)
			acc[3*m+0], acc[3*m+1], acc[3*m+2] = 0, 0, 0
			touched[m] = false
		}
		w.Barrier(bid)
		bid++
		// Phase 3: owners integrate their molecules.
		const dt = 0.005
		for m := lo; m < hi; m++ {
			b := wa.base + m*molWords
			for c := 0; c < 3; c++ {
				v := w.ReadF64(b+3+c) + dt*w.ReadF64(b+6+c)
				w.WriteF64(b+3+c, v)
				w.WriteF64(b+0+c, w.ReadF64(b+0+c)+dt*v)
				w.WriteF64(b+6+c, 0)
			}
			w.Compute(wa.IntegrateCycles)
		}
		w.Barrier(bid)
		bid++
	}
}

// Verify runs the same dynamics sequentially and compares positions
// (tolerantly: the parallel force accumulation order differs).
func (wa *Water) Verify(c *cluster.Cluster) error {
	pos := make([]float64, 3*wa.M)
	vel := make([]float64, 3*wa.M)
	force := make([]float64, 3*wa.M)
	for i := 0; i < wa.M; i++ {
		pos[3*i], pos[3*i+1], pos[3*i+2] = initPos(i)
	}
	for step := 0; step < wa.Steps; step++ {
		for i := 0; i < wa.M; i++ {
			for d := 1; d <= wa.M/2; d++ {
				jm := (i + d) % wa.M
				if wa.M%2 == 0 && d == wa.M/2 && i >= wa.M/2 {
					break
				}
				fx, fy, fz := ljForce(pos[3*i], pos[3*i+1], pos[3*i+2],
					pos[3*jm], pos[3*jm+1], pos[3*jm+2])
				force[3*i] += fx
				force[3*i+1] += fy
				force[3*i+2] += fz
				force[3*jm] -= fx
				force[3*jm+1] -= fy
				force[3*jm+2] -= fz
			}
		}
		const dt = 0.005
		for m := 0; m < wa.M; m++ {
			for k := 0; k < 3; k++ {
				vel[3*m+k] += dt * force[3*m+k]
				pos[3*m+k] += dt * vel[3*m+k]
				force[3*m+k] = 0
			}
		}
	}
	for m := 0; m < wa.M; m++ {
		b := wa.base + m*molWords
		for k := 0; k < 3; k++ {
			got := c.ReadF64(b + k)
			want := pos[3*m+k]
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return fmt.Errorf("water: molecule %d coord %d = %.15g, want %.15g", m, k, got, want)
			}
		}
	}
	return nil
}
