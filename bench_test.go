package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus the DESIGN.md ablations. Each benchmark exercises the same code
// path as the full experiment at a reduced scale (small population, few
// repetitions) so `go test -bench=.` finishes in minutes on one core;
// cmd/experiments runs the full-scale versions.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// benchRunner builds a Runner with a small cached population. The
// population build (the expensive, uninteresting part) is triggered before
// the timer via the warm function.
func benchRunner(b *testing.B, circuits []string, pop int) *experiments.Runner {
	b.Helper()
	return experiments.NewRunner(experiments.Config{
		Circuits: circuits,
		PopSize:  pop,
		Runs:     3,
		Seed:     1,
	})
}

func BenchmarkTable1Unconstrained(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Table1(); err != nil { // warm population cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Quality(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Table2(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ConstrainedHigh(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Table3(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4ConstrainedLow(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Table4(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1SampleMaxima(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Figure1("C880", []int{2, 30}, 200); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure1("C880", []int{2, 30}, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2EstimatorDist(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Figure2("C880", []int{10}, 30); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure2("C880", []int{10}, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselinesExtension(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.Baselines(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSampleSize(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.AblationSampleSize("C880", []int{10, 30}, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationSampleSize("C880", []int{10, 30}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHyperSamples(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.AblationHyperSamples("C880", []int{5, 10}, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationHyperSamples("C880", []int{5, 10}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFiniteCorrection(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.AblationFiniteCorrection("C880", 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationFiniteCorrection("C880", 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMLEvsLSQ(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 4000)
	if _, err := r.AblationMLEvsLSQ("C880", 10, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationMLEvsLSQ("C880", 10, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// serviceRoundTrip submits one job over HTTP and polls until terminal;
// it is the service-level unit of work for BenchmarkServiceJobSubmit.
func serviceRoundTrip(b *testing.B, url string, req service.JobRequest) {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		r, err := http.Get(url + "/v1/jobs/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		var st service.JobStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if st.State.Terminal() {
			if st.State != service.StateDone {
				b.Fatalf("job %s: %s (%s)", sub.ID, st.State, st.Error)
			}
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	b.Fatalf("job %s did not finish", sub.ID)
}

// BenchmarkServiceJobSubmit measures the in-process HTTP round trip of
// one estimation job on a tiny circuit — the baseline for later
// caching/sharding PRs. "cold" forces a population-cache miss per
// iteration (fresh population seed); "warm" reuses one cached
// population for every iteration.
func BenchmarkServiceJobSubmit(b *testing.B) {
	newService := func() (*httptest.Server, *service.Manager) {
		mgr, err := service.NewManager(service.ManagerConfig{Workers: 2, CacheSize: 4})
		if err != nil {
			b.Fatal(err)
		}
		return httptest.NewServer(service.NewServer(mgr)), mgr
	}
	req := service.JobRequest{
		Circuit:    "C432",
		Population: service.PopulationSpec{Size: 20000, Seed: 1},
		Options:    service.EstimateOptions{Seed: 2},
	}

	b.Run("cold", func(b *testing.B) {
		srv, _ := newService()
		defer srv.Close()
		for i := 0; i < b.N; i++ {
			r := req
			r.Population.Seed = uint64(i) + 10 // unique key → cache miss
			serviceRoundTrip(b, srv.URL, r)
		}
	})
	b.Run("warm", func(b *testing.B) {
		srv, _ := newService()
		defer srv.Close()
		serviceRoundTrip(b, srv.URL, req) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serviceRoundTrip(b, srv.URL, req)
		}
	})
}

// scalarStream hides StreamSource's SampleBatch, forcing the estimator
// onto the one-unit-at-a-time path — the pre-batching baseline.
type scalarStream struct{ src *vectorgen.StreamSource }

func (s scalarStream) SamplePower(rng *stats.RNG) float64 { return s.src.SamplePower(rng) }
func (s scalarStream) Size() int                          { return s.src.Size() }

// BenchmarkEstimateStreaming measures the dominant hot path of real-design
// estimation — on-demand simulation of every sampled unit — on the
// C3540-scale circuit under zero and fanout delay, comparing the scalar
// baseline against the batched sampling seam at 1 and NumCPU workers. All
// variants are bit-identical in results
// (TestEstimateStreamingDeterministicAcrossWorkers); only the cost per
// unit changes. Most seeds run the full 8 hyper-samples (2400 units);
// a few converge a hyper-sample early, so the guard only rejects runs too
// small to have exercised the streaming path at all. Compare runs at equal
// -benchtime (the canonical protocol is -benchtime 3x, whose seeds all do
// identical full-length work).
func BenchmarkEstimateStreaming(b *testing.B) {
	c := bench.MustGenerate("C3540")
	gen := vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	cfg := evt.Config{Epsilon: 0.001, MaxHyperSamples: 8}

	run := func(b *testing.B, src evt.Source) {
		b.Helper()
		est, err := evt.New(src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res := est.Run(stats.NewRNG(uint64(i) + 1))
			if res.Units < 300 {
				b.Fatalf("units = %d, want ≥ 300", res.Units)
			}
		}
	}
	// Every evaluator runs the compiled speculative engine; the shared
	// cache amortizes the one-time netlist compile across b.N.
	kernels := sim.NewProgramCache(4)
	newSource := func(b *testing.B, model delay.Model, workers int) *vectorgen.StreamSource {
		b.Helper()
		ev := power.NewEvaluator(c, model, power.Params{})
		ev.UseSpeculative(kernels, c.Name+"/"+model.Name())
		src, err := vectorgen.NewStreamSource(ev, gen)
		if err != nil {
			b.Fatal(err)
		}
		src.Workers = workers
		return src
	}
	for _, model := range []delay.Model{delay.Zero{}, delay.FanoutLoaded{}} {
		b.Run(model.Name()+"/scalar", func(b *testing.B) {
			run(b, scalarStream{src: newSource(b, model, 1)})
		})
		b.Run(model.Name()+"/workers-1", func(b *testing.B) {
			run(b, newSource(b, model, 1))
		})
		b.Run(model.Name()+"/workers-ncpu", func(b *testing.B) {
			run(b, newSource(b, model, runtime.NumCPU()))
		})
	}
}

func BenchmarkAblationDelayModel(b *testing.B) {
	r := benchRunner(b, []string{"C880"}, 2000)
	if _, err := r.AblationDelayModel("C880", 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationDelayModel("C880", 2); err != nil {
			b.Fatal(err)
		}
	}
}
