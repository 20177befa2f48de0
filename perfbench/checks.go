package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"questgo/internal/core"
	"questgo/internal/obs"
)

// Tolerances of the output checks. The particle-hole identities hold per
// configuration at half filling, so they are checked far below any
// statistical error; the free-fermion probe compares against closed form.
const (
	densityTol   = 1e-10 // |<n> - 1|
	signTol      = 1e-12 // |<sign> - 1|
	nkPairTol    = 1e-8  // |n_k + n_{k+(pi,pi)} - 1|
	freeTol      = 1e-8  // U=0 kinetic energy and n_k against closed form
	residualTol  = 1e-8  // stack-vs-rebuild residual at large beta
	deviceRelTol = 1e-10 // device job against its CPU twin, relative
)

// checkHalfFilling verifies the particle-hole identities of the half-filled
// repulsive Hubbard model on an nx x ny plane: density 1, sign 1, and
// n_k + n_{k+(pi,pi)} = 1 for every k of the grid.
func checkHalfFilling(nx, ny int, r *core.Results) error {
	if d := math.Abs(r.Density - 1); !(d <= densityTol) {
		return fmt.Errorf("density %.17g differs from 1 by %.3g (tolerance %g)", r.Density, d, densityTol)
	}
	if d := math.Abs(r.AvgSign - 1); !(d <= signTol) {
		return fmt.Errorf("<sign> %.17g is not 1", r.AvgSign)
	}
	if len(r.Nk) != nx*ny {
		return fmt.Errorf("n_k has %d points, want %d", len(r.Nk), nx*ny)
	}
	if nx%2 != 0 || ny%2 != 0 {
		return fmt.Errorf("(pi,pi) is not on the %dx%d grid", nx, ny)
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			k := ix + nx*iy
			q := (ix+nx/2)%nx + nx*((iy+ny/2)%ny)
			if d := math.Abs(r.Nk[k] + r.Nk[q] - 1); !(d <= nkPairTol) {
				return fmt.Errorf("n_k pair (%d,%d)+(pi,pi) sums to 1%+.3g (tolerance %g)", ix, iy, r.Nk[k]+r.Nk[q]-1, nkPairTol)
			}
		}
	}
	return nil
}

// checkFinite rejects a run whose stability telemetry saw a NaN or Inf, or
// whose scalar observables are not finite.
func checkFinite(r *core.Results) error {
	for name, v := range map[string]float64{
		"density": r.Density, "double_occ": r.DoubleOcc, "kinetic": r.Kinetic,
		"energy": r.Energy, "saf": r.SAF, "sign": r.AvgSign, "wrap_drift": r.MaxWrapDrift,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", name, v)
		}
	}
	if m := r.Metrics; m != nil && m.Stability.NonFiniteSeen {
		s := m.Stability
		return fmt.Errorf("non-finite stability samples: drift %d, residual %d, cond %d",
			s.NonFiniteWrapDrift, s.NonFiniteStratResidual, s.NonFiniteUDTCond)
	}
	return nil
}

// freeFermions returns the closed-form per-spin momentum distribution
// n_k = (1 - tanh(beta*eps_k/2))/2 on the x-fastest nx x ny grid and the
// kinetic energy per site (both spins), for nearest-neighbour hopping t at
// mu = 0. The imaginary-time discretisation does not enter: at U = 0 the
// propagator product is exactly exp(-beta*K).
func freeFermions(nx, ny int, t, beta float64) (nk []float64, kinetic float64) {
	nk = make([]float64, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			kx := 2 * math.Pi * float64(ix) / float64(nx)
			ky := 2 * math.Pi * float64(iy) / float64(ny)
			eps := -2 * t * (math.Cos(kx) + math.Cos(ky))
			n := 0.5 * (1 - math.Tanh(beta*eps/2))
			nk[ix+nx*iy] = n
			kinetic += 2 * eps * n
		}
	}
	return nk, kinetic / float64(nx*ny)
}

// checkFree compares a U = 0 run with the closed-form free-fermion values.
func checkFree(cfg core.Config, r *core.Results) error {
	nk, kin := freeFermions(cfg.Nx, cfg.Ny, cfg.T, cfg.Beta)
	if d := math.Abs(r.Kinetic - kin); !(d <= freeTol) {
		return fmt.Errorf("U=0 kinetic energy %.15g, closed form %.15g (difference %.3g)", r.Kinetic, kin, d)
	}
	if len(r.Nk) != len(nk) {
		return fmt.Errorf("U=0 n_k has %d points, want %d", len(r.Nk), len(nk))
	}
	for i := range nk {
		if d := math.Abs(r.Nk[i] - nk[i]); !(d <= freeTol) {
			return fmt.Errorf("U=0 n_k[%d] = %.15g, closed form %.15g (difference %.3g)", i, r.Nk[i], nk[i], d)
		}
	}
	return nil
}

// checkTwin compares a device job with the same physics run on the CPU:
// every observable must agree within deviceRelTol of its own scale.
func checkTwin(dev, cpu *core.Results) error {
	scalars := []struct {
		name string
		a, b float64
	}{
		{"density", dev.Density, cpu.Density},
		{"double_occ", dev.DoubleOcc, cpu.DoubleOcc},
		{"kinetic", dev.Kinetic, cpu.Kinetic},
		{"energy", dev.Energy, cpu.Energy},
		{"local_moment", dev.LocalMoment, cpu.LocalMoment},
		{"saf", dev.SAF, cpu.SAF},
		{"sign", dev.AvgSign, cpu.AvgSign},
		{"acceptance", dev.Acceptance, cpu.Acceptance},
	}
	for _, s := range scalars {
		if err := relClose(s.name, []float64{s.a}, []float64{s.b}); err != nil {
			return err
		}
	}
	if err := relClose("n_k", dev.Nk, cpu.Nk); err != nil {
		return err
	}
	return relClose("czz", dev.Czz, cpu.Czz)
}

// relClose checks |a_i - b_i| <= deviceRelTol * max_j |b_j| element-wise.
func relClose(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("device/CPU %s lengths %d and %d differ", name, len(a), len(b))
	}
	var scale float64
	for _, v := range b {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); !(d <= deviceRelTol*scale) {
			return fmt.Errorf("device/CPU %s[%d]: %.17g vs %.17g (relative %.3g)", name, i, a[i], b[i], d/scale)
		}
	}
	return nil
}

// checkCacheHit requires a cache hit to return exactly the document of the
// cold job it repeats.
func checkCacheHit(hit, cold *core.Results) error {
	hb, err := json.Marshal(hit)
	if err != nil {
		return fmt.Errorf("encode cache hit: %w", err)
	}
	cb, err := json.Marshal(cold)
	if err != nil {
		return fmt.Errorf("encode cold result: %w", err)
	}
	if !bytes.Equal(hb, cb) {
		return fmt.Errorf("cache hit differs from its cold job (%d vs %d bytes)", len(hb), len(cb))
	}
	return nil
}

// checkOwnSweeps is the per-job metrics audit: a 1-shard job's metrics
// document must count exactly the sweeps of its own schedule.
func checkOwnSweeps(m *obs.Metrics, cfg core.Config) error {
	if m == nil {
		return fmt.Errorf("job result carries no metrics document")
	}
	want := int64(cfg.WarmSweeps + cfg.MeasSweeps)
	if m.Ops.Sweeps != want {
		return fmt.Errorf("metrics document counts %d sweeps, the job ran %d", m.Ops.Sweeps, want)
	}
	return nil
}

// checkStratResidual requires stack-vs-rebuild residuals to have been
// sampled and the worst of them to stay within residualTol.
func checkStratResidual(m *obs.Metrics) error {
	if m == nil {
		return fmt.Errorf("no metrics document")
	}
	s := m.Stability
	if s.StratResidualSamples == 0 {
		return fmt.Errorf("no stack-vs-rebuild residual was sampled")
	}
	if !(s.MaxStratResidual <= residualTol) {
		return fmt.Errorf("stack-vs-rebuild residual %.3g exceeds %g", s.MaxStratResidual, residualTol)
	}
	return nil
}

// checkCoverage is the accounting check: the instrumented phases must
// account for the run's wall time within coverageTol.
func checkCoverage(m *obs.Metrics) error {
	if m == nil {
		return fmt.Errorf("no metrics document")
	}
	if d := math.Abs(m.PhaseCoverage - 1); !(d <= coverageTol) {
		return fmt.Errorf("phases cover %.1f%% of the run's wall (tolerance %.0f%%)", 100*m.PhaseCoverage, 100*coverageTol)
	}
	return nil
}

// coverageTol bounds how far the phase breakdown may miss the wall time.
const coverageTol = 0.05
