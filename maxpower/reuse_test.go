package maxpower_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/maxpower"
)

// reuseStep is one call of a prepared-source reuse sequence: a streaming
// estimate, or (shard ≥ 0) one shard of a streaming sharded run.
type reuseStep struct {
	spec  maxpower.PopulationSpec
	opt   maxpower.EstimateOptions
	shard int // -1 = EstimateStreaming
}

// reuseOut is what a step produced; equal outs mean bit-identical runs.
type reuseOut struct {
	res  maxpower.Result
	recs []maxpower.HyperRecord
}

// runStep runs one step against kernels.
func runStep(t *testing.T, c *netlist.Circuit, st reuseStep, kernels *maxpower.KernelCache) reuseOut {
	t.Helper()
	var out reuseOut
	opt := st.opt
	opt.Kernels = kernels
	var err error
	if st.shard < 0 {
		out.res, err = maxpower.EstimateStreaming(c, st.spec, opt)
	} else {
		var shards []maxpower.Shard
		shards, err = maxpower.PlanShards(opt, maxpower.DistributedOptions{ShardSize: 2})
		if err == nil {
			out.recs, err = maxpower.RunShard(context.Background(), maxpower.Stream(c, st.spec), opt, shards[st.shard], nil)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameOut requires two runs of one step to be bit-identical: the
// statistical result, the units, every hyper-sample, and the engine
// counters.
func sameOut(t *testing.T, label string, got, want reuseOut) {
	t.Helper()
	sameResult(t, label, got.res, want.res)
	if got.res.Engine != want.res.Engine {
		t.Errorf("%s: engine counters %+v, fresh source %+v", label, got.res.Engine, want.res.Engine)
	}
	if len(got.res.Trace) != len(want.res.Trace) {
		t.Fatalf("%s: %d hyper-samples, fresh source %d", label, len(got.res.Trace), len(want.res.Trace))
	}
	for i := range got.res.Trace {
		if got.res.Trace[i].HyperRecord != want.res.Trace[i].HyperRecord {
			t.Errorf("%s: hyper-sample %d: %+v, fresh source %+v", label, i, got.res.Trace[i].HyperRecord, want.res.Trace[i].HyperRecord)
		}
	}
	if !slices.Equal(got.recs, want.recs) {
		t.Errorf("%s: shard records %v, fresh source %v", label, got.recs, want.recs)
	}
}

// TestStreamingSourceReuse runs a sequence of streaming estimates and
// shards on one kernel cache, so most calls take the source an earlier
// call parked, and requires each to bit-match the same call on a fresh
// cache. The sequence changes seed, nominal size, generator, delay model
// and worker budget (1 → 4 → 1) between calls.
func TestStreamingSourceReuse(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	est := func(seed uint64, workers int) maxpower.EstimateOptions {
		return maxpower.EstimateOptions{Seed: seed, Epsilon: 0.02, MaxHyperSamples: 4, Workers: workers}
	}
	steps := []reuseStep{
		{spec: maxpower.PopulationSpec{DelayModel: "zero"}, opt: est(1, 1), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "fanout", Kind: maxpower.PopUniform, Size: 20000}, opt: est(2, 1), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "fanout", Size: 5000}, opt: est(3, 4), shard: 1},
		{spec: maxpower.PopulationSpec{DelayModel: "table", Kind: maxpower.PopConstrained, Activity: 0.4}, opt: est(4, 1), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "zero", Size: 5000}, opt: est(5, 4), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "fanout", Activity: 0.5, Skew: 2}, opt: est(6, 1), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "zero"}, opt: est(7, 4), shard: 0},
		{spec: maxpower.PopulationSpec{DelayModel: "zero"}, opt: est(1, 1), shard: -1},
		{spec: maxpower.PopulationSpec{DelayModel: "table", Kind: maxpower.PopUniform}, opt: est(8, 4), shard: -1},
	}
	shared := maxpower.NewKernelCache(4)
	for i, st := range steps {
		label := fmt.Sprintf("step %d (%s, workers %d)", i, st.spec.DelayModel, st.opt.Workers)
		got := runStep(t, c, st, shared)
		want := runStep(t, c, st, maxpower.NewKernelCache(4))
		sameOut(t, label, got, want)
	}
	if ks := shared.Stats(); ks.Misses != 3 {
		t.Errorf("shared cache compiled %d programs, want 3 (one per delay model)", ks.Misses)
	}
}

// TestStreamingSourceReuseConcurrent has goroutines share one kernel
// cache, each running several streaming estimates, so sources are taken
// and parked concurrently (run it under -race). Every result must match
// the same estimate run alone on a private cache.
func TestStreamingSourceReuseConcurrent(t *testing.T) {
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	models := []string{"zero", "fanout"}
	opt := func(seed uint64) maxpower.EstimateOptions {
		return maxpower.EstimateOptions{Seed: seed, Epsilon: 0.02, MaxHyperSamples: 3, Workers: 1 + int(seed%2)}
	}
	const goroutines, calls = 4, 3
	want := make(map[string]maxpower.Result)
	for g := 0; g < goroutines; g++ {
		for k := 0; k < calls; k++ {
			model, seed := models[(g+k)%2], uint64(g*calls+k)
			res, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{DelayModel: model}, opt(seed))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(model, seed)] = res
		}
	}
	shared := maxpower.NewKernelCache(4)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*calls)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				model, seed := models[(g+k)%2], uint64(g*calls+k)
				o := opt(seed)
				o.Kernels = shared
				res, err := maxpower.EstimateStreaming(c, maxpower.PopulationSpec{DelayModel: model}, o)
				if err != nil {
					errs <- err
					continue
				}
				w := want[fmt.Sprint(model, seed)]
				if res.Estimate != w.Estimate || res.Units != w.Units || res.Engine != w.Engine {
					errs <- fmt.Errorf("%s seed %d: shared cache %v/%d/%+v, alone %v/%d/%+v",
						model, seed, res.Estimate, res.Units, res.Engine, w.Estimate, w.Units, w.Engine)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEstimateStreamingWarmAllocs guards what a warm streaming estimate
// allocates: with a shared kernel cache the evaluators, executors and
// batch buffers are reused, so allocations and bytes per call are the
// estimator's own and must not grow with the circuit. Without reuse a
// C7552 zero-delay call allocated about 1.1 MB and a C3540 fanout call
// about 5.8 MB.
func TestEstimateStreamingWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full streaming estimates on C7552 and C3540")
	}
	const maxAllocs, maxBytes = 64, 16 << 10
	for _, tc := range []struct{ circuit, model string }{{"C7552", "zero"}, {"C3540", "fanout"}} {
		c, err := maxpower.Circuit(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		spec := maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, DelayModel: tc.model}
		opt := maxpower.EstimateOptions{Seed: 3, Workers: 1, Kernels: maxpower.NewKernelCache(2)}
		run := func() {
			if _, err := maxpower.EstimateStreaming(c, spec, opt); err != nil {
				t.Fatal(err)
			}
		}
		run() // compile the program and park the first source
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(3, run)
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 4 // AllocsPerRun adds a warm-up call
		t.Logf("%s/%s: %.0f allocs, %d bytes per warm call", tc.circuit, tc.model, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s/%s: %.0f allocs and %d bytes per warm call, want at most %d and %d",
				tc.circuit, tc.model, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}

// TestEstimateWarmAllocs guards what a warm Estimate on a built C880
// population allocates. Each call builds a new estimator, and with it a
// new Weibull fitter, so scratch a fit keeps on the heap would be
// garbage once per estimate; the fit keeps its lanes' scratch and its
// μ grid on the stack instead. The bounds are what the serial fit, with
// its heap scratch and closures, allocated here: 14 objects and 3,945
// bytes per call (the lockstep fit: 8 and about 3,340).
func TestEstimateWarmAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 14, 3945
	c, err := maxpower.Circuit("C880")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Kind: maxpower.PopHighActivity, Size: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := maxpower.EstimateOptions{Seed: 2}
	run := func() {
		if _, err := maxpower.Estimate(pop, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, run)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun adds a warm-up call
	t.Logf("%.0f allocs, %d bytes per warm call", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("%.0f allocs and %d bytes per warm call, want at most %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
