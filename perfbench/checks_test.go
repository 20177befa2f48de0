package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"questgo/internal/core"
	"questgo/internal/obs"
)

// goodResults is a half-filled 4x4 result that passes every check: the
// free-fermion n_k satisfies the particle-hole pairing exactly.
func goodResults() *core.Results {
	cfg := core.DefaultConfig()
	nk, kin := freeFermions(4, 4, 1, 2)
	return &core.Results{
		Config: cfg, Density: 1, AvgSign: 1, Kinetic: kin, Energy: kin,
		Nk: nk, Czz: []float64{0.5, -0.1, 0.02, 0},
		Metrics: &obs.Metrics{Ops: obs.OpMetrics{Sweeps: int64(cfg.WarmSweeps + cfg.MeasSweeps)}, PhaseCoverage: 0.99},
	}
}

func TestHalfFillingChecks(t *testing.T) {
	if err := checkHalfFilling(4, 4, goodResults()); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	r := goodResults()
	r.Density = 1 + 1e-6
	if checkHalfFilling(4, 4, r) == nil {
		t.Error("density off by 1e-6 accepted")
	}
	r = goodResults()
	r.Nk[5] += 1e-6
	if checkHalfFilling(4, 4, r) == nil {
		t.Error("broken n_k pair accepted")
	}
	r = goodResults()
	r.AvgSign = 0.98
	if checkHalfFilling(4, 4, r) == nil {
		t.Error("sign 0.98 accepted")
	}
}

func TestFreeFermionCheck(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Beta = 2
	if err := checkFree(cfg, goodResults()); err != nil {
		t.Fatalf("closed form rejected: %v", err)
	}
	r := goodResults()
	r.Kinetic += 1e-7
	if checkFree(cfg, r) == nil {
		t.Error("kinetic energy off by 1e-7 accepted")
	}
	r = goodResults()
	r.Nk[3] -= 1e-7
	if checkFree(cfg, r) == nil {
		t.Error("n_k off by 1e-7 accepted")
	}
	// At large beta the 4x4 band fills below the Fermi level: n_k -> 1 for
	// eps_k < 0, 0 for eps_k > 0 and 1/2 on the Fermi surface.
	nk, _ := freeFermions(4, 4, 1, 200)
	if nk[0] != 1 || nk[2+4*2] != 0 || nk[2] != 0.5 {
		t.Errorf("free n_k at beta=200: (0,0)=%v (pi,pi)=%v (pi,0)=%v", nk[0], nk[10], nk[2])
	}
}

func TestFiniteCheck(t *testing.T) {
	r := goodResults()
	r.Metrics.Stability.NonFiniteSeen = true
	if checkFinite(r) == nil {
		t.Error("non-finite stability sample accepted")
	}
	r = goodResults()
	r.SAF = math.NaN()
	if checkFinite(r) == nil {
		t.Error("NaN observable accepted")
	}
}

func TestTwinCheck(t *testing.T) {
	cpu, dev := goodResults(), goodResults()
	dev.Kinetic *= 1 + 1e-12
	if err := checkTwin(dev, cpu); err != nil {
		t.Fatalf("agreement within 1e-12 rejected: %v", err)
	}
	dev = goodResults()
	dev.Czz[1] += 1e-9
	if checkTwin(dev, cpu) == nil {
		t.Error("device/CPU mismatch accepted")
	}
}

func TestCacheHitCheck(t *testing.T) {
	if err := checkCacheHit(goodResults(), goodResults()); err != nil {
		t.Fatalf("identical documents rejected: %v", err)
	}
	hit := goodResults()
	hit.Energy = math.Nextafter(hit.Energy, 0)
	if checkCacheHit(hit, goodResults()) == nil {
		t.Error("cache hit one ulp off its cold job accepted")
	}
}

func TestAuditAndCoverageChecks(t *testing.T) {
	r := goodResults()
	if err := checkOwnSweeps(r.Metrics, r.Config); err != nil {
		t.Fatalf("own sweeps rejected: %v", err)
	}
	r.Metrics.Ops.Sweeps *= 2
	if checkOwnSweeps(r.Metrics, r.Config) == nil {
		t.Error("doubled sweep count accepted")
	}
	if err := checkCoverage(r.Metrics); err != nil {
		t.Fatalf("99%% coverage rejected: %v", err)
	}
	r.Metrics.PhaseCoverage = 0.9
	if checkCoverage(r.Metrics) == nil {
		t.Error("90% coverage accepted")
	}
}

func TestStratResidualCheck(t *testing.T) {
	m := goodResults().Metrics
	if checkStratResidual(m) == nil {
		t.Error("run without residual samples accepted")
	}
	m.Stability.StratResidualSamples, m.Stability.MaxStratResidual = 8, 5e-10
	if err := checkStratResidual(m); err != nil {
		t.Fatalf("residual 5e-10 rejected: %v", err)
	}
	m.Stability.MaxStratResidual = 2e-8
	if checkStratResidual(m) == nil {
		t.Error("residual 2e-8 accepted")
	}
	m.Stability.MaxStratResidual = math.NaN()
	if checkStratResidual(m) == nil {
		t.Error("NaN residual accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, ok := tail(xs); !ok || v != 39 {
		t.Errorf("tail of 0..49 = %v, %v; want 39 (ten samples above)", v, ok)
	}
	if _, ok := tail(xs[:39]); ok {
		t.Error("tail reported from 39 samples")
	}
}

func TestSpanCoverage(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	p := tr.add(-1, "job", "j", 0, 10*ms)
	tr.add(p, "run", "a", 1*ms, 4*ms)
	tr.add(p, "run", "b", 3*ms, 6*ms)  // overlaps a
	tr.add(p, "run", "c", 9*ms, 12*ms) // clipped at the parent's end
	st := tr.summarise()
	if got := st["job"]; got.selfMean != 4*ms || math.Abs(got.coverage-0.6) > 1e-12 {
		t.Errorf("job self %v coverage %v; want 4ms, 0.6", got.selfMean, got.coverage)
	}
}

func TestClientJobsMakeUp(t *testing.T) {
	var first map[string]int
	for seed := uint64(1); seed <= 20; seed++ {
		for c := 0; c < mixClients; c++ {
			jobs := clientJobs(seed, c)
			count := map[string]int{}
			for i, j := range jobs {
				count[j.kind]++
				switch j.kind {
				case kindRepeat:
					src := jobs[j.of]
					if j.of >= i || src.kind != kindCold || src.req.Config.Hash() != j.req.Config.Hash() {
						t.Fatalf("seed %d client %d: repeat %d does not follow its cold job %d", seed, c, i, j.of)
					}
				case kindDevice:
					twin := jobs[j.of]
					tc, dc := twin.req.Config, j.req.Config
					dc.Devices, dc.UseGraphs = 0, false
					if twin.kind != kindCold || tc.Hash() != dc.Hash() || j.req.Config.Devices != 1+c {
						t.Fatalf("seed %d client %d: device job %d has no CPU twin", seed, c, i)
					}
				}
			}
			if first == nil {
				first = count
			}
			for k, n := range first {
				if count[k] != n {
					t.Fatalf("seed %d client %d: %d %s jobs, want %d", seed, c, count[k], k, n)
				}
			}
		}
	}
	if first[kindRepeat] != 3 || first[kindDevice] != 1 || first[kindCold] != 7 {
		t.Errorf("make-up %v; want 7 CPU cold jobs (one the twin), 1 device job, 3 repeats", first)
	}
}

// TestBenchmarkFileListsEveryLayerMetric keeps BENCHMARK.json and the
// metrics a traced run prints in step.
func TestBenchmarkFileListsEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetricList) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(b.PerLayer), len(layerMetricList))
	}
	for i, m := range layerMetricList {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
