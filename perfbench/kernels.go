package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"questgo/internal/blas"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// kernelCosts are per-call costs of the dense kernels at one matrix size,
// measured by direct calls after the kernels passed their checks.
type kernelCosts struct {
	N                         int
	GemmCall, QRCall, QRPCall time.Duration
	WrapCall                  time.Duration
	GemmGFlops, QRGFlops      float64
	QRPGFlops                 float64
}

// kernelBudget is how long each kernel is timed.
const kernelBudget = 150 * time.Millisecond

// randomMatrix fills an n x n matrix with uniform entries in [-1, 1).
func randomMatrix(r *rand.Rand, n int) *mat.Dense {
	a := mat.New(n, n)
	for i := range a.Data {
		a.Data[i] = 2*r.Float64() - 1
	}
	return a
}

// checkGemm compares blas.Gemm with a naive triple loop on the same inputs.
func checkGemm(a, b *mat.Dense) error {
	n := a.Rows
	c := mat.New(n, n)
	blas.Gemm(false, false, 1, a, b, 0, c)
	var worst float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for p := 0; p < n; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			worst = math.Max(worst, math.Abs(s-c.At(i, j)))
		}
	}
	if tol := 1e-13 * float64(n); !(worst <= tol) {
		return fmt.Errorf("Gemm differs from the naive product by %.3g at N=%d (tolerance %.3g)", worst, n, tol)
	}
	return nil
}

// checkQR verifies a Householder factorization of a (pivoted when piv is
// not nil): Q orthogonal and Q R equal to A with its columns permuted.
func checkQR(name string, a *mat.Dense, qr *lapack.QR, piv []int) error {
	n := a.Rows
	q := mat.New(n, n)
	qr.FormQ(q)
	r := qr.R()
	qtq := mat.New(n, n)
	blas.Gemm(true, false, 1, q, q, 0, qtq)
	var orth float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			orth = math.Max(orth, math.Abs(qtq.At(i, j)-want))
		}
	}
	qrm := mat.New(n, n)
	blas.Gemm(false, false, 1, q, r, 0, qrm)
	var recon float64
	for j := 0; j < n; j++ {
		src := j
		if piv != nil {
			src = piv[j]
		}
		for i := 0; i < n; i++ {
			recon = math.Max(recon, math.Abs(qrm.At(i, j)-a.At(i, src)))
		}
	}
	tol := 1e-13 * float64(n)
	if !(orth <= tol) {
		return fmt.Errorf("%s: |QtQ - I| = %.3g at N=%d (tolerance %.3g)", name, orth, n, tol)
	}
	if !(recon <= tol) {
		return fmt.Errorf("%s: |QR - A P| = %.3g at N=%d (tolerance %.3g)", name, recon, n, tol)
	}
	return nil
}

// timeCalls runs f repeatedly for about kernelBudget in batches and
// returns the median per-call time over the batches.
func timeCalls(f func()) time.Duration {
	f() // warm caches and scratch pools
	var per []float64
	deadline := time.Now().Add(kernelBudget)
	batch := 1
	for time.Now().Before(deadline) || len(per) < 5 {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		el := time.Since(start)
		per = append(per, float64(el)/float64(batch))
		if el < 2*time.Millisecond {
			batch *= 2
		}
	}
	return time.Duration(median(per))
}

// measureKernels checks and then times Gemm, QRFactor, QRPFactor and
// Wrapper.Wrap at the workload's matrix size. The inputs come from seed.
func measureKernels(cfg chainShape, seed uint64) (kernelCosts, error) {
	n := cfg.Nx * cfg.Ny
	r := rand.New(rand.NewPCG(seed, 0x6b65726e656c))
	a, b := randomMatrix(r, n), randomMatrix(r, n)
	k := kernelCosts{N: n}
	if err := checkGemm(a, b); err != nil {
		return k, err
	}
	work := mat.New(n, n)
	work.CopyFrom(a)
	qr := lapack.QRFactor(work)
	if err := checkQR("QRFactor", a, qr, nil); err != nil {
		return k, err
	}
	qr.Release()
	work.CopyFrom(a)
	qr, piv := lapack.QRPFactor(work)
	err := checkQR("QRPFactor", a, qr, piv)
	qr.Release()
	lapack.PutPivot(&piv)
	if err != nil {
		return k, err
	}

	c := mat.New(n, n)
	k.GemmCall = timeCalls(func() { blas.Gemm(false, false, 1, a, b, 0, c) })
	k.QRCall = timeCalls(func() {
		work.CopyFrom(a)
		lapack.QRFactor(work).Release()
	})
	k.QRPCall = timeCalls(func() {
		work.CopyFrom(a)
		q, p := lapack.QRPFactor(work)
		q.Release()
		lapack.PutPivot(&p)
	})
	model, err := hubbard.NewModel(lattice.NewSquare(cfg.Nx, cfg.Ny, 1), cfg.U, 0, cfg.Beta, cfg.L)
	if err != nil {
		return k, err
	}
	prop := hubbard.NewPropagator(model)
	field := hubbard.NewRandomField(cfg.L, n, rng.New(seed))
	g := randomMatrix(r, n)
	w := greens.NewWrapper(prop)
	l := 0
	k.WrapCall = timeCalls(func() {
		// Wrapping forward and back keeps g bounded however long it runs.
		w.Wrap(g, field, hubbard.Up, l)
		w.WrapInverse(g, field, hubbard.Up, l)
		l = (l + 1) % cfg.L
	}) / 2

	nf := float64(n)
	k.GemmGFlops = 2 * nf * nf * nf / k.GemmCall.Seconds() / 1e9
	k.QRGFlops = 4.0 / 3 * nf * nf * nf / k.QRCall.Seconds() / 1e9
	k.QRPGFlops = 4.0 / 3 * nf * nf * nf / k.QRPCall.Seconds() / 1e9
	return k, nil
}
