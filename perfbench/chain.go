package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"questgo/internal/core"
	"questgo/internal/obs"
)

// chainShape is the lattice and discretisation of a workload.
type chainShape struct {
	Nx, Ny  int
	U, Beta float64
	L, K    int
}

// chainWorkload is a Markov chain on the CPU sweeper. A round is one chain
// job: core.New, then RunContext over warm+meas sweeps. The rounds of a run
// cycle through chainsPerRun chains, so a run averages over several chains
// and every run covers the same ones.
type chainWorkload struct {
	shape          chainShape
	warm, meas     int
	stabilityEvery int
}

var (
	// sweep12 is the paper's production loop at this machine's scale.
	sweep12 = chainWorkload{shape: chainShape{Nx: 12, Ny: 12, U: 4, Beta: 4, L: 40, K: 10}, warm: 2, meas: 8}
	// beta32 is the large-beta chain: stratification dominates and the
	// stack is checked against a full rebuild every 4 cluster boundaries.
	// The autopilot stays off: its check cadence (3 to 16) and k depend on
	// the chain, which moves the cost of a sweep by up to 1.6x between seeds.
	beta32 = chainWorkload{shape: chainShape{Nx: 8, Ny: 8, U: 4, Beta: 32, L: 320, K: 10}, warm: 2, meas: 6,
		stabilityEvery: 4}
)

// config builds the chain's configuration for a seed.
func (w chainWorkload) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nx, cfg.Ny = w.shape.Nx, w.shape.Ny
	cfg.U, cfg.Beta, cfg.L, cfg.ClusterK = w.shape.U, w.shape.Beta, w.shape.L, w.shape.K
	cfg.WarmSweeps, cfg.MeasSweeps = w.warm, w.meas
	cfg.StabilityCheckEvery = w.stabilityEvery
	cfg.Seed = seed
	return cfg
}

// chainsPerRun is how many distinct chains a run cycles through; every run
// completes each of them at least once.
const chainsPerRun = 4

// chainSeed derives the seed of chain i from the benchmark seed.
func chainSeed(seed uint64, i int) uint64 { return core.WalkerSeed(seed, 7+i%chainsPerRun) }

// sweepMark is one WithProgress snapshot, kept for the sweep spans.
type sweepMark struct {
	at     time.Duration // collector wall since RunContext began
	phases obs.PhaseDurations
}

// roundOut is what one chain round measured.
type roundOut struct {
	newTime, runWall time.Duration
	start, runStart  time.Time
	marks            []sweepMark
	res              *core.Results
	allocs           uint64
}

// runRound runs one chain job and records its per-sweep snapshots.
func runRound(ctx context.Context, cfg core.Config) (roundOut, error) {
	var out roundOut
	out.marks = make([]sweepMark, 0, cfg.WarmSweeps+cfg.MeasSweeps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out.start = time.Now()
	sim, err := core.New(cfg)
	if err != nil {
		return out, err
	}
	out.runStart = time.Now()
	out.newTime = out.runStart.Sub(out.start)
	res, err := sim.RunContext(ctx, func(p core.Progress) {
		out.marks = append(out.marks, sweepMark{at: p.Wall, phases: p.Phases})
	})
	out.runWall = time.Since(out.runStart)
	if err != nil {
		return out, err
	}
	runtime.ReadMemStats(&ms1)
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.res = res
	return out, nil
}

// chainChecks applies the output checks every chain round must pass.
func chainChecks(r *run, w chainWorkload, res *core.Results) {
	if err := checkFinite(res); err != nil {
		r.fail("%v", err)
	}
	if err := checkHalfFilling(w.shape.Nx, w.shape.Ny, res); err != nil {
		r.fail("%v", err)
	}
	if w.stabilityEvery > 0 {
		if err := checkStratResidual(res.Metrics); err != nil {
			r.fail("%v", err)
		}
	}
}

// freeProbe runs the U=0 chain on the workload's lattice, beta and L and
// compares it with closed-form free fermions.
func freeProbe(ctx context.Context, r *run, w chainWorkload, seed uint64) error {
	cfg := w.config(seed)
	cfg.U = 0
	cfg.WarmSweeps, cfg.MeasSweeps = 0, 1
	cfg.StabilityCheckEvery = 0
	out, err := runRound(ctx, cfg)
	if err != nil {
		return fmt.Errorf("U=0 probe: %w", err)
	}
	if err := checkFree(cfg, out.res); err != nil {
		r.fail("%v", err)
	}
	if err := checkHalfFilling(cfg.Nx, cfg.Ny, out.res); err != nil {
		r.fail("U=0 probe: %v", err)
	}
	return nil
}

// runChain runs a chain workload for o.seconds of rounds.
func runChain(w chainWorkload, o options) (*run, error) {
	ctx := context.Background()
	r := newRun()
	if err := freeProbe(ctx, r, w, o.seed); err != nil {
		return nil, err
	}
	var kc kernelCosts
	if o.trace {
		var err error
		if kc, err = measureKernels(w.shape, o.seed); err != nil {
			r.fail("kernel check: %v", err)
		}
	}
	cfg := w.config(chainSeed(o.seed, 0))
	n := float64(cfg.Nx * cfg.Ny)
	sweepsPerRound := cfg.WarmSweeps + cfg.MeasSweeps

	var (
		newTimes, sweepTimes, roundWalls []float64
		traceCost                        []float64
		runTotal                         time.Duration
		sweeps                           int
		worst, drift, resid              float64
		allocs                           uint64
		phaseMS                          = map[string]float64{}
		ops                              obs.OpMetrics
		accept, coverage                 []float64
		ap                               *obs.AutopilotMetrics
		checks                           int64
		tr                               = newTracer()
	)
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	begin := time.Now()
	for round := 0; ; round++ {
		if el := time.Since(begin); round >= chainsPerRun && len(sweepTimes) >= minTailSamples &&
			el+time.Duration(median(roundWalls)*float64(time.Millisecond)) > o.seconds {
			break
		}
		cfg.Seed = chainSeed(o.seed, round)
		out, err := runRound(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		r.attempted++
		res := out.res
		chainChecks(r, w, res)
		if o.trace {
			if err := checkCoverage(res.Metrics); err != nil {
				r.fail("accounting: %v", err)
			}
		}
		wall := out.newTime + out.runWall
		roundWalls = append(roundWalls, ms(wall))
		// Spans are built after the round from what it recorded anyway, so
		// the tracing overhead is the time taken to build them.
		if o.trace {
			t0 := time.Now()
			traceRound(tr, out, res, kc)
			traceCost = append(traceCost, ms(time.Since(t0)))
		}
		newTimes = append(newTimes, out.newTime.Seconds())
		var prev time.Duration
		for _, mk := range out.marks {
			sweepTimes = append(sweepTimes, ms(mk.at-prev))
			prev = mk.at
		}
		runTotal += out.runWall
		sweeps += sweepsPerRound
		allocs += out.allocs
		m := res.Metrics
		drift = math.Max(drift, m.Stability.MaxWrapDrift)
		resid = math.Max(resid, m.Stability.MaxStratResidual)
		for p, v := range m.PhaseMS {
			phaseMS[p] += v
		}
		addOps(&ops, m.Ops)
		accept = append(accept, res.Acceptance)
		coverage = append(coverage, m.PhaseCoverage)
		ap = m.Autopilot
		checks += m.Stability.StratResidualSamples
	}
	runtime.ReadMemStats(&gc1)
	worst = math.Max(drift, resid)

	e := r.e2e
	e.set("setup_s", median(newTimes), "s")
	e.set("updates_per_s", n*float64(cfg.L)*float64(sweeps)/runTotal.Seconds(), "1/s")
	e.set("accuracy_digits", digits(worst), "digits")
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	e.set("jobs_per_s", float64(sweeps)/runTotal.Seconds(), "1/s")
	e.set("job_latency_ms", median(sweepTimes), "ms")
	t, _ := tail(sweepTimes) // the loop runs until there are enough samples
	e.set("job_latency_tail_ms", t, "ms")

	if o.trace {
		l := r.layers
		sw := float64(sweeps)
		l.set("core.new_ms", 1000*median(newTimes), "ms")
		chainLayerMetrics(l, phaseMS, ops, sw, mean(accept), drift, resid, mean(coverage))
		kernelMetrics(l, kc)
		autopilotMetrics(l, ap, cfg.ClusterK, checks)
		l.set("go.allocs_per_sweep", float64(allocs)/sw, "count")
		l.set("go.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
		traceMetrics(l, tr)
		l.set("trace.overhead_ms", mean(traceCost), "ms")
		fillLayerDefaults(l)
	}
	return r, nil
}

// addOps sums op-count documents.
func addOps(dst *obs.OpMetrics, s obs.OpMetrics) {
	dst.GemmCalls += s.GemmCalls
	dst.GemmFlops += s.GemmFlops
	dst.QRFactorizations += s.QRFactorizations
	dst.QRPFactorizations += s.QRPFactorizations
	dst.QRPPanels += s.QRPPanels
	dst.UDTSteps += s.UDTSteps
	dst.DelayedFlushes += s.DelayedFlushes
	dst.Wraps += s.Wraps
	dst.Sweeps += s.Sweeps
	dst.GraphReplays += s.GraphReplays
}

// chainLayerMetrics reports the update, greens, measure, blas, lapack and
// obs layers from summed phase times and op counts over sw sweeps.
func chainLayerMetrics(l metrics, phaseMS map[string]float64, ops obs.OpMetrics, sw, acceptance, drift, resid, coverage float64) {
	l.set("update.flush_ms_per_sweep", phaseMS["flush"]/sw, "ms")
	l.set("update.flushes_per_sweep", float64(ops.DelayedFlushes)/sw, "count")
	l.set("update.acceptance", acceptance, "ratio")
	l.set("greens.wrap_ms_per_sweep", phaseMS["wrap"]/sw, "ms")
	l.set("greens.cluster_ms_per_sweep", phaseMS["cluster"]/sw, "ms")
	l.set("greens.refresh_ms_per_sweep", phaseMS["refresh"]/sw, "ms")
	l.set("greens.wraps_per_sweep", float64(ops.Wraps)/sw, "count")
	l.set("greens.udt_steps_per_sweep", float64(ops.UDTSteps)/sw, "count")
	l.set("greens.wrap_drift_max", drift, "rel")
	l.set("greens.strat_residual_max", resid, "rel")
	l.set("measure.ms_per_sweep", phaseMS["measure"]/sw, "ms")
	l.set("blas.gemm_calls_per_sweep", float64(ops.GemmCalls)/sw, "count")
	l.set("blas.gemm_gflop_per_sweep", float64(ops.GemmFlops)/1e9/sw, "GFlop")
	l.set("lapack.qr_per_sweep", float64(ops.QRFactorizations)/sw, "count")
	l.set("lapack.qrp_per_sweep", float64(ops.QRPFactorizations)/sw, "count")
	l.set("lapack.qrp_panels_per_sweep", float64(ops.QRPPanels)/sw, "count")
	l.set("obs.phase_coverage", coverage, "ratio")
}

// kernelMetrics reports the directly timed kernel rates.
func kernelMetrics(l metrics, kc kernelCosts) {
	l.set("blas.gemm_gflops", kc.GemmGFlops, "GFlop/s")
	l.set("lapack.qr_gflops", kc.QRGFlops, "GFlop/s")
	l.set("lapack.qrp_gflops", kc.QRPGFlops, "GFlop/s")
}

// autopilotMetrics reports the controller's end state; without an
// autopilot the cluster size stays at its configured value.
func autopilotMetrics(l metrics, ap *obs.AutopilotMetrics, k int, checks int64) {
	final, decisions := float64(k), 0.0
	if ap != nil {
		final, decisions = float64(ap.FinalK), float64(len(ap.Decisions))
	}
	l.set("autopilot.final_k", final, "count")
	l.set("autopilot.decisions", decisions, "count")
	l.set("autopilot.stability_checks", float64(checks), "count")
}

// deviceMetrics reports the mean per-job device counters of 1-shard
// device jobs, summed over each job's devices.
func deviceMetrics(l metrics, docs []*obs.Metrics, execMS []float64, graphReplays int64) {
	var clock, launch, mb, kernels []float64
	for _, m := range docs {
		var c, la, b, k float64
		for _, d := range m.Devices {
			c += d.ClockMS
			la += d.LaunchOverheadMS
			b += float64(d.TransferredBytes) / 1e6
			k += float64(d.Kernels)
		}
		clock, launch, mb, kernels = append(clock, c), append(launch, la), append(mb, b), append(kernels, k)
	}
	l.set("gpu.modeled_clock_ms", mean(clock), "ms")
	l.set("gpu.launch_overhead_ms", mean(launch), "ms")
	l.set("gpu.transferred_mb", mean(mb), "MB")
	l.set("gpu.kernels", mean(kernels), "count")
	l.set("gpu.graph_replays", float64(graphReplays), "count")
	l.set("gpu.job_exec_ms", mean(execMS), "ms")
}

// traceRound records one chain round as spans: the job, core.New, the run,
// one span per sweep from the WithProgress snapshots with that sweep's
// phase deltas as children, and under the phases the kernels as op count
// times per-call cost.
func traceRound(t *tracer, out roundOut, res *core.Results, kc kernelCosts) {
	runStart := t.at(out.runStart)
	job := t.add(-1, "job", "chain", t.at(out.start), runStart+out.runWall)
	t.add(job, "new", "core.New", t.at(out.start), runStart)
	runSpan := t.add(job, "run", "RunContext", runStart, runStart+out.runWall)
	ops := res.Metrics.Ops
	sw := float64(len(out.marks))
	if sw == 0 {
		return
	}
	// Per-sweep kernel time from the run's op counts and the direct costs.
	nf := float64(kc.N)
	perSweep := func(count int64, call time.Duration) time.Duration {
		return time.Duration(float64(count) / sw * float64(call))
	}
	wrapK := perSweep(ops.Wraps, kc.WrapCall)
	qrK := perSweep(ops.QRFactorizations, kc.QRCall)
	qrpK := perSweep(ops.QRPFactorizations, kc.QRPCall)
	// GEMM flops outside the dense wraps (two N^3 products each).
	var gemmK time.Duration
	if kc.GemmGFlops > 0 {
		rest := float64(ops.GemmFlops) - float64(ops.Wraps)*4*nf*nf*nf
		gemmK = time.Duration(math.Max(rest, 0) / sw / (kc.GemmGFlops * 1e9) * float64(time.Second))
	}
	gemmPhase := func(p obs.Phase) bool {
		return p == obs.PhaseFlush || p == obs.PhaseCluster || p == obs.PhaseRefresh
	}
	var prev sweepMark
	for _, mk := range out.marks {
		s0, s1 := runStart+prev.at, runStart+mk.at
		sweep := t.add(runSpan, "sweep", "sweep", s0, s1)
		// The remaining GEMM work is shared out over the phases that run
		// GEMMs in proportion to their time in this sweep.
		var gemmBase time.Duration
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if gemmPhase(p) {
				gemmBase += mk.phases[p] - prev.phases[p]
			}
		}
		at := s0
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			d := mk.phases[p] - prev.phases[p]
			ph := t.add(sweep, "phase", p.String(), at, at+d)
			k0 := at
			addK := func(name string, dur time.Duration) {
				t.add(ph, "kernel", name, k0, k0+dur)
				k0 += dur
			}
			switch p {
			case obs.PhaseWrap:
				addK("wrap", wrapK)
			case obs.PhaseRefresh:
				addK("qr", qrK)
				addK("qrp", qrpK)
			}
			if gemmPhase(p) && gemmBase > 0 {
				addK("gemm", time.Duration(float64(gemmK)*float64(d)/float64(gemmBase)))
			}
			at += d
		}
		prev = mk
	}
}
