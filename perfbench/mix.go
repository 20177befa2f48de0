package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"questgo/internal/core"
	"questgo/internal/obs"
	"questgo/internal/service"
)

// mixWorkers is the dqmcd worker pool and mixClients the closed-loop client
// count: together they keep two threads of work busy.
const (
	mixWorkers = 2
	mixClients = 2
)

// setupStarts is how many times each round starts a server.
const setupStarts = 5

// Job kinds of the mix.
const (
	kindCold   = "cold"   // a CPU job the server has not seen
	kindDevice = "device" // a cold job on the simulated device group
	kindRepeat = "repeat" // an earlier request of the same client: a cache hit
)

// mixJob is one submission of a client's list.
type mixJob struct {
	req  service.JobRequest
	kind string
	of   int // repeat: the list index it repeats; device: its CPU twin
}

// mixConfig is a small Hubbard job of the mix.
func mixConfig(nx int, beta float64, l int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nx, cfg.Ny = nx, nx
	cfg.Beta, cfg.L, cfg.ClusterK = beta, l, 10
	cfg.WarmSweeps, cfg.MeasSweeps = 4, 8
	return cfg
}

// clientJobs builds one client's list. Every list has the same make-up
// and order — two 4x4 jobs, a 2-shard 6x6 job, two 6x6 jobs with
// stack-vs-rebuild sampling, an 8x8 autopilot job, a 6x6 device job on
// 1 + client devices with graphs and its CPU twin, and three repeats of
// earlier jobs — so the load on the server is the same whatever the seed;
// the seed draws the chains' seeds.
func clientJobs(seed uint64, client int) []mixJob {
	r := rand.New(rand.NewPCG(seed, uint64(client)+0x6d6978))
	job := func(cfg core.Config, shards int) mixJob {
		cfg.Seed = r.Uint64()
		return mixJob{req: service.JobRequest{Config: cfg, Shards: shards}, kind: kindCold}
	}
	small := mixConfig(4, 2, 20)
	mid := mixConfig(6, 4, 40)
	sampled := mid
	sampled.StabilityCheckEvery = 4
	pilot := mixConfig(8, 4, 40)
	pilot.Autopilot, pilot.StabilityCheckEvery = true, 4

	twin := job(mid, 1)
	dev := twin
	dev.kind, dev.of = kindDevice, 2
	dev.req.Config.Devices, dev.req.Config.UseGraphs = 1+client, true
	repeat := func(of int, jobs []mixJob) mixJob {
		return mixJob{req: jobs[of].req, kind: kindRepeat, of: of}
	}
	jobs := []mixJob{job(small, 1), job(sampled, 1), twin, dev}
	jobs = append(jobs, repeat(0, jobs), job(pilot, 1), job(mid, 2))
	jobs = append(jobs, repeat(1, jobs), job(small, 1), job(sampled, 1))
	return append(jobs, repeat(6, jobs))
}

// auditConfig is the job of the per-job metrics audit.
func auditConfig(seed uint64) core.Config {
	c := mixConfig(6, 2, 20)
	c.Seed = seed
	c.WarmSweeps, c.MeasSweeps = 10, 20
	return c
}

// done is one finished submission as the client saw it.
type done struct {
	job        mixJob
	submitted  time.Time
	latency    time.Duration
	res        *service.JobResult
	status     *service.JobStatus // traced runs only
	shardStart map[int]time.Time  // traced runs only, from the event stream
	shardEnd   map[int]time.Time
	statusRead time.Duration // traced runs only: the time taken by the status read
	err        error
}

// server is one hermetic dqmcd on a loopback listener.
type server struct {
	svc    *service.Server
	hs     *http.Server
	client *service.Client
	tr     *http.Transport
	served chan struct{}
}

// startServer brings a server up and waits until /v1/healthz answers.
func startServer(ctx context.Context, ckptDir string) (*server, error) {
	svc, err := service.New(service.Options{Workers: mixWorkers, CheckpointDir: ckptDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	s := &server{svc: svc, hs: &http.Server{Handler: svc}, tr: &http.Transport{}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	base := "http://" + ln.Addr().String()
	s.client = &service.Client{Base: base, HTTPClient: &http.Client{Transport: s.tr}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		s.stop()
		return nil, err
	}
	resp, err := s.client.HTTPClient.Do(req)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return s, nil
}

// stop closes the listener, drains the workers and waits for Serve.
func (s *server) stop() {
	_ = s.hs.Close()
	<-s.served
	_ = s.svc.Close()
	s.tr.CloseIdleConnections()
}

// submitAndWait submits one job and follows its event stream to the end.
func submitAndWait(ctx context.Context, cl *service.Client, j mixJob, traced bool) done {
	d := done{job: j, submitted: time.Now()}
	st, err := cl.Submit(ctx, j.req)
	if err != nil {
		d.err = err
		return d
	}
	if !st.Cached {
		if traced {
			d.shardStart, d.shardEnd = map[int]time.Time{}, map[int]time.Time{}
		}
		err = cl.Stream(ctx, st.ID, func(e service.Event) bool {
			if traced && e.Shard >= 0 {
				switch {
				case e.Type == "shard" && e.State == service.StateRunning:
					d.shardStart[e.Shard] = time.Now()
				case e.Type == "partial":
					d.shardEnd[e.Shard] = time.Now()
				}
			}
			return !(e.Type == "state" && e.Shard == -1 &&
				(e.State == service.StateDone || e.State == service.StateFailed || e.State == service.StateCanceled))
		})
		if err != nil {
			d.err = err
			return d
		}
	}
	d.res, d.err = cl.Result(ctx, st.ID)
	d.latency = time.Since(d.submitted)
	if d.err == nil && traced {
		t0 := time.Now()
		d.status, d.err = cl.Status(ctx, st.ID)
		d.statusRead = time.Since(t0)
	}
	return d
}

// mixRound is what one round measured.
type mixRound struct {
	setups   []float64 // server start until /v1/healthz answers, s
	loopWall time.Duration
	jobs     []done
	stats    *service.Stats
	allocs   uint64
}

// runMixRound starts a server, runs the audit and the closed loop, and
// stops the server. A fresh server per round empties the result cache, so
// every round repeats the same operations.
func runMixRound(ctx context.Context, r *run, lists [][]mixJob, audit core.Config, dir string, traced bool) (mixRound, error) {
	var mr mixRound
	// The server is started setupStarts times and the last one serves the
	// round: start-up takes under a millisecond, so it needs many samples.
	var srv *server
	for k := 0; k < setupStarts; k++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, dir); err != nil {
			return mr, fmt.Errorf("start dqmcd: %w", err)
		}
		mr.setups = append(mr.setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	// Per-job metrics audit: two identical cold jobs on the idle server at
	// once; each metrics document must count only its own sweeps.
	r.attempted++
	var wg sync.WaitGroup
	auditOut := make([]done, 2)
	for i := range auditOut {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			auditOut[i] = submitAndWait(ctx, srv.client, mixJob{req: service.JobRequest{Config: audit, NoCache: true}, kind: kindCold}, false)
		}(i)
	}
	wg.Wait()
	auditFailed := false
	for _, d := range auditOut {
		if d.err != nil {
			return mr, fmt.Errorf("audit job: %w", d.err)
		}
		resultChecks(r, d.res.Results)
		if err := checkOwnSweeps(d.res.Results.Metrics, audit); err != nil {
			auditFailed = true
		}
	}
	if auditFailed {
		r.failed++
	}

	// The closed loop: each client submits its next job when the previous
	// one has returned.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	outs := make([][]done, len(lists))
	loopStart := time.Now()
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range lists[c] {
				outs[c] = append(outs[c], submitAndWait(ctx, srv.client, j, traced))
			}
		}(c)
	}
	wg.Wait()
	mr.loopWall = time.Since(loopStart)
	runtime.ReadMemStats(&ms1)
	mr.allocs = ms1.Mallocs - ms0.Mallocs
	var err error
	if mr.stats, err = srv.client.Stats(ctx); err != nil {
		return mr, fmt.Errorf("stats: %w", err)
	}
	for c := range outs {
		mixChecks(r, outs[c])
		mr.jobs = append(mr.jobs, outs[c]...)
	}
	return mr, nil
}

// runSolo runs client 0's device job and its autopilot job, the largest
// CPU job of the mix, one after the other on an idle server. Op counts are
// process-global, so a job's own counts are exact only when it runs alone.
func runSolo(ctx context.Context, r *run, jobs []mixJob, dir string) ([]done, error) {
	srv, err := startServer(ctx, dir)
	if err != nil {
		return nil, fmt.Errorf("start dqmcd: %w", err)
	}
	defer srv.stop()
	var solo []done
	for _, j := range jobs {
		if j.kind != kindDevice && !j.req.Config.Autopilot {
			continue
		}
		j.req.NoCache = true
		d := submitAndWait(ctx, srv.client, j, false)
		if d.err != nil {
			return nil, fmt.Errorf("solo job: %w", d.err)
		}
		resultChecks(r, d.res.Results)
		solo = append(solo, d)
	}
	return solo, nil
}

// resultChecks applies the per-result output checks.
func resultChecks(r *run, res *core.Results) {
	if err := checkFinite(res); err != nil {
		r.fail("%v", err)
	}
	if err := checkHalfFilling(res.Config.Nx, res.Config.Ny, res); err != nil {
		r.fail("%v", err)
	}
}

// mixChecks checks one client's finished list: physics of every result,
// cache hits equal to their cold jobs, device jobs equal to their twins.
func mixChecks(r *run, ds []done) {
	for _, d := range ds {
		r.attempted++
		if d.err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s job failed: %v\n", d.job.kind, d.err)
			continue
		}
		resultChecks(r, d.res.Results)
		switch d.job.kind {
		case kindRepeat:
			if !d.res.Cached {
				r.fail("repeat of job %d was not answered by the cache", d.job.of)
			}
			if cold := ds[d.job.of]; cold.err == nil {
				if err := checkCacheHit(d.res.Results, cold.res.Results); err != nil {
					r.fail("%v", err)
				}
			}
		case kindDevice:
			if twin := ds[d.job.of]; twin.err == nil {
				if err := checkTwin(d.res.Results, twin.res.Results); err != nil {
					r.fail("%v", err)
				}
			}
		}
	}
}

// runMix runs the dqmcd-mix workload for o.seconds of rounds.
func runMix(o options) (*run, error) {
	ctx := context.Background()
	r := newRun()
	lists := make([][]mixJob, mixClients)
	for c := range lists {
		lists[c] = clientJobs(o.seed, c)
	}
	audit := auditConfig(core.WalkerSeed(o.seed, 99))
	var kc kernelCosts
	if o.trace {
		var err error
		if kc, err = measureKernels(chainShape{Nx: 8, Ny: 8, U: 4, Beta: 4, L: 40}, o.seed); err != nil {
			r.fail("kernel check: %v", err)
		}
	}

	var (
		rounds     []mixRound
		roundWalls []float64
		traceCost  []float64
		tr         = newTracer()
		coldJobs   int
		gc0, gc1   runtime.MemStats
	)
	runtime.ReadMemStats(&gc0)
	begin := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(begin); i > 0 && coldJobs >= minTailSamples &&
			el+time.Duration(median(roundWalls)*float64(time.Millisecond)) > o.seconds {
			break
		}
		mr, err := runMixRound(ctx, r, lists, audit, filepath.Join(o.workDir, fmt.Sprintf("ckpt-%d", i)), o.trace)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		roundWalls = append(roundWalls, ms(mr.loopWall))
		// The tracing overhead of a round: the status reads a traced round
		// adds, and building its spans.
		if o.trace {
			t0 := time.Now()
			traceMix(tr, mr)
			cost := time.Since(t0)
			for _, d := range mr.jobs {
				cost += d.statusRead
			}
			traceCost = append(traceCost, ms(cost))
		}
		rounds = append(rounds, mr)
		for _, d := range mr.jobs {
			if d.job.kind != kindRepeat {
				coldJobs++
			}
		}
	}
	runtime.ReadMemStats(&gc1)

	var (
		setups, coldLat, hitLat []float64
		loop                    time.Duration
		updates, jobs, sweeps   float64
		worst                   float64
	)
	for _, mr := range rounds {
		setups = append(setups, mr.setups...)
		loop += mr.loopWall
		for _, d := range mr.jobs {
			if d.err != nil {
				continue
			}
			jobs++
			if d.job.kind == kindRepeat {
				hitLat = append(hitLat, ms(d.latency))
				continue
			}
			coldLat = append(coldLat, ms(d.latency))
			c := d.job.req.Config
			sw := float64((c.WarmSweeps + c.MeasSweeps) * d.job.req.Shards)
			sweeps += sw
			updates += float64(c.Nx*c.Ny*c.L) * sw
			worst = math.Max(worst, jobError(d.res.Results))
		}
	}
	e := r.e2e
	e.set("setup_s", median(setups), "s")
	e.set("updates_per_s", updates/loop.Seconds(), "1/s")
	e.set("accuracy_digits", digits(worst), "digits")
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	e.set("jobs_per_s", jobs/loop.Seconds(), "1/s")
	e.set("job_latency_ms", median(coldLat), "ms")
	t, _ := tail(coldLat) // the loop runs until there are enough samples
	e.set("job_latency_tail_ms", t, "ms")

	if o.trace {
		// The exact op counts come from jobs run alone on an idle server.
		solo, err := runSolo(ctx, r, lists[0], filepath.Join(o.workDir, "ckpt-solo"))
		if err != nil {
			return nil, err
		}
		mixLayers(r.layers, rounds, solo, kc, sweeps)
		r.layers.set("go.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
		r.layers.set("service.cache_hit_ms", median(hitLat), "ms")
		traceMetrics(r.layers, tr)
		r.layers.set("trace.overhead_ms", median(traceCost), "ms")
		fillLayerDefaults(r.layers)
	}
	return r, nil
}

// jobError is the worst Green's-function error a job sampled: the larger of
// its wrap drift and its stack-vs-rebuild residual.
func jobError(res *core.Results) float64 {
	w := res.MaxWrapDrift
	if m := res.Metrics; m != nil {
		w = math.Max(w, math.Max(m.Stability.MaxWrapDrift, m.Stability.MaxStratResidual))
	}
	return w
}

// mixLayers reports the per-layer metrics of the mix: phase times from the
// 1-shard cold jobs' own metrics documents, op counts from the solo jobs,
// the service layer from outside.
func mixLayers(l metrics, rounds []mixRound, solo []done, kc kernelCosts, coldSweeps float64) {
	phaseMS := map[string]float64{}
	var (
		sw, drift, resid               float64
		accept, coverage               []float64
		wait, exec, overhead, devExec  []float64
		devDocs                        []*obs.Metrics
		apFinal, apChecks, apDecisions []float64
		hits, shards, restarts, allocs float64
	)
	for _, mr := range rounds {
		hits += float64(mr.stats.CacheHits)
		shards += float64(mr.stats.ShardsRun)
		restarts += float64(mr.stats.ShardRestarts)
		allocs += float64(mr.allocs)
		for _, d := range mr.jobs {
			if d.err != nil || d.job.kind == kindRepeat {
				continue
			}
			res := d.res.Results
			accept = append(accept, res.Acceptance)
			drift = math.Max(drift, res.MaxWrapDrift)
			overhead = append(overhead, ms(d.latency)-d.res.WallMS)
			if st := d.status; st != nil {
				wait = append(wait, float64(st.StartedUnixMS-st.SubmittedUnixMS))
				exec = append(exec, float64(st.FinishedUnixMS-st.StartedUnixMS))
			}
			m := res.Metrics
			if m == nil { // multi-shard results carry no metrics document
				continue
			}
			c := res.Config
			sw += float64(c.WarmSweeps + c.MeasSweeps)
			for p, v := range m.PhaseMS {
				phaseMS[p] += v
			}
			coverage = append(coverage, m.PhaseCoverage)
			resid = math.Max(resid, m.Stability.MaxStratResidual)
			if d.job.kind == kindDevice {
				devDocs = append(devDocs, m)
				devExec = append(devExec, d.res.WallMS)
			}
			if a := m.Autopilot; a != nil {
				apFinal = append(apFinal, float64(a.FinalK))
				apDecisions = append(apDecisions, float64(len(a.Decisions)))
				apChecks = append(apChecks, float64(m.Stability.StratResidualSamples))
			}
		}
	}
	nr := float64(len(rounds))
	var ops obs.OpMetrics
	var replays int64
	for _, d := range solo {
		m := d.res.Results.Metrics
		if d.job.kind == kindDevice {
			replays = m.Ops.GraphReplays
			continue
		}
		ops = m.Ops
	}
	// The solo CPU job's op counts per sweep, over its own sweeps.
	soloSweeps := float64(ops.Sweeps)
	if soloSweeps == 0 {
		soloSweeps = 1
	}
	chainLayerMetrics(l, phaseMS, obs.OpMetrics{}, sw, mean(accept), drift, resid, mean(coverage))
	l.set("update.flushes_per_sweep", float64(ops.DelayedFlushes)/soloSweeps, "count")
	l.set("greens.wraps_per_sweep", float64(ops.Wraps)/soloSweeps, "count")
	l.set("greens.udt_steps_per_sweep", float64(ops.UDTSteps)/soloSweeps, "count")
	l.set("blas.gemm_calls_per_sweep", float64(ops.GemmCalls)/soloSweeps, "count")
	l.set("blas.gemm_gflop_per_sweep", float64(ops.GemmFlops)/1e9/soloSweeps, "GFlop")
	l.set("lapack.qr_per_sweep", float64(ops.QRFactorizations)/soloSweeps, "count")
	l.set("lapack.qrp_per_sweep", float64(ops.QRPFactorizations)/soloSweeps, "count")
	l.set("lapack.qrp_panels_per_sweep", float64(ops.QRPPanels)/soloSweeps, "count")
	kernelMetrics(l, kc)
	l.set("autopilot.final_k", mean(apFinal), "count")
	l.set("autopilot.decisions", mean(apDecisions), "count")
	l.set("autopilot.stability_checks", mean(apChecks), "count")
	deviceMetrics(l, devDocs, devExec, replays)
	l.set("service.queue_wait_ms", mean(wait), "ms")
	l.set("service.exec_ms", mean(exec), "ms")
	l.set("service.overhead_ms", mean(overhead), "ms")
	l.set("service.cache_hits", hits/nr, "count")
	l.set("service.shards_run", shards/nr, "count")
	l.set("service.shard_restarts", restarts/nr, "count")
	l.set("go.allocs_per_sweep", allocs/coldSweeps, "count")

	cfg := solo[len(solo)-1].job.req.Config
	var news []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := core.New(cfg); err == nil {
			news = append(news, ms(time.Since(t0)))
		}
	}
	l.set("core.new_ms", median(news), "ms")
}

// traceMix records a round's jobs as spans: each job from submit to
// result, its shards from the event stream, and under a 1-shard job's
// shard the phases of its metrics document.
func traceMix(t *tracer, mr mixRound) {
	for _, d := range mr.jobs {
		if d.err != nil {
			continue
		}
		s := t.at(d.submitted)
		job := t.add(-1, "job", d.job.kind, s, s+d.latency)
		for sh, st := range d.shardStart {
			end, ok := d.shardEnd[sh]
			if !ok {
				continue
			}
			shard := t.add(job, "run", fmt.Sprintf("shard%d", sh), t.at(st), t.at(end))
			m := d.res.Results.Metrics
			if m == nil {
				continue
			}
			at := t.at(st)
			for p := obs.Phase(0); p < obs.NumPhases; p++ {
				dur := time.Duration(m.PhaseMS[p.String()] * float64(time.Millisecond))
				t.add(shard, "phase", p.String(), at, at+dur)
				at += dur
			}
		}
	}
}
