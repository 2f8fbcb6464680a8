package apps

import (
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
)

// The Prof benchmarks run one benchmark-workload pass each, without
// the verifier, as entry points for -cpuprofile and -memprofile.

// BenchmarkCholeskyProf is the dsm-cholesky pass: BCSSTK14 on 8 nodes.
func BenchmarkCholeskyProf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		app := NewCholesky(spmat.BCSSTK14())
		MustExecute(&cfg, 8, app)
	}
}

// BenchmarkJacobiProf is the dsm-jacobi pass: Jacobi 1024² with 10
// iterations on 16 CNI nodes.
func BenchmarkJacobiProf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.ForNIC(config.NICCNI)
		MustExecute(&cfg, 16, NewJacobi(1024, 10))
	}
}
