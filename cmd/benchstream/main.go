// Command benchstream measures the streaming-estimation hot path — the
// cost of one full estimator run with on-demand simulation — and emits a
// machine-readable JSON baseline (BENCH_streaming.json). CI runs it on
// every push and uploads the file as an artifact, so regressions in the
// compiled batch engine show up as a diffable number instead of a vague
// "feels slower".
//
// Usage:
//
//	benchstream                      # all circuit × delay-model variants
//	benchstream -circuits C432       # subset
//	benchstream -iterations 3        # runs per timed block (fixed seed set)
//	benchstream -reps 5              # interleaved blocks per variant (report the min)
//	benchstream -o BENCH_streaming.json
//	benchstream -check BENCH_streaming.json   # regression gate (no output file)
//	benchstream -cpuprofile cpu.pprof        # pprof the whole sweep
//	benchstream -memprofile mem.pprof        # heap profile at exit
//
// Protocol: each variant pins the estimator to 8 hyper-samples at
// ε = 0.001 (the BenchmarkEstimateStreaming configuration), single
// worker, so the number is the single-core cost of the compiled
// speculative engine every power.Evaluator runs — comparable across
// commits on the same machine, not across machines. All variants share
// one program cache the way the service does.
//
// Timing is min-of-reps: after the estimator is built, -reps timed
// blocks of -iterations runs each execute back to back, and ns_per_run
// is the fastest block's mean. The min is the stable summary of a noisy
// host — the runs are bit-identical, so the fastest observation is the
// one closest to the machine's true cost. Every variant runs the same
// fixed seed set. Allocation figures (allocs_per_run, bytes_per_run)
// come from a separate counted pass after one untimed warm-up run, so
// they are steady state — lazily built executor scratch is excluded.
// Each variant also records the speculation counters of one run
// (stripes, patched words, stripes replayed on the scalar simulator).
//
// -check gates on two axes against the committed baseline:
//   - bytes_per_run: allocation volume is a property of the code and
//     comparable across machines; >25% growth fails.
//   - ns_per_run: wall time is machine-dependent, so the gate is
//     deliberately loose (>60% growth with an absolute floor) and the
//     baseline must be refreshed whenever the reference machine
//     changes; it exists to catch order-of-magnitude kernel
//     regressions, not single-digit drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
)

// Variant is one measured configuration.
type Variant struct {
	Circuit     string  `json:"circuit"`
	Model       string  `json:"delay_model"`
	NsPerOp     int64   `json:"ns_per_run"`
	MsPerOp     float64 `json:"ms_per_run"`
	Units       int     `json:"units_per_run"`
	AllocsPerOp int64   `json:"allocs_per_run"`
	BytesPerOp  int64   `json:"bytes_per_run"`
	// Speculation counters of one estimator run: timed stripes
	// attempted, gate-words patched, stripes replayed on the scalar
	// simulator after a misprediction.
	SpecStripes   uint64 `json:"spec_stripes,omitempty"`
	SpecPatched   uint64 `json:"spec_patched_words,omitempty"`
	SpecFallbacks uint64 `json:"spec_fallbacks,omitempty"`
}

// key identifies a variant across baseline generations.
func (v Variant) key() string { return v.Circuit + "/" + v.Model }

// Baseline is the emitted document.
type Baseline struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	Timestamp  time.Time `json:"timestamp"`
	Iterations int       `json:"iterations_per_variant"`
	Reps       int       `json:"reps_per_variant,omitempty"`
	Variants   []Variant `json:"variants"`
}

func main() {
	var (
		circuits   = flag.String("circuits", "C432,C3540", "comma-separated benchmark circuits")
		iterations = flag.Int("iterations", 3, "estimator runs per timed block (fixed seed set)")
		reps       = flag.Int("reps", 7, "timed blocks per variant; ns_per_run is the fastest block")
		out        = flag.String("o", "BENCH_streaming.json", "output file (- for stdout)")
		check      = flag.String("check", "", "baseline file to gate against (fails if bytes_per_run grows >25% or ns_per_run >60%); suppresses output file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file before exiting")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	base := Baseline{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC(),
		Iterations: *iterations,
		Reps:       *reps,
	}
	models := []delay.Model{delay.Zero{}, delay.FanoutLoaded{}, delay.StandardTable()}
	// One program cache for the whole sweep, shared the way the service
	// shares its kernel cache: each (circuit, model) compiles once and
	// every iteration after that hits.
	kernels := sim.NewProgramCache(16)
	for _, name := range strings.Split(*circuits, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, err := bench.Generate(name)
		if err != nil {
			fatal(err)
		}
		for _, model := range models {
			v, err := measure(c, model, *iterations, *reps, kernels)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "%-8s %-14s %8.1f ms/run %10d B/run %6d allocs/run (%d units)\n",
				v.Circuit, v.Model, v.MsPerOp, v.BytesPerOp, v.AllocsPerOp, v.Units)
			base.Variants = append(base.Variants, v)
		}
	}

	if *check != "" {
		if err := checkAgainst(*check, base.Variants); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "benchstream: allocation and wall-time budgets hold against", *check)
		return
	}

	enc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// checkAgainst compares measured variants with the committed baseline
// and errors on regressions. bytes_per_run is gated at >25% growth
// (with a small absolute floor so near-zero baselines don't trip on
// kilobyte noise) — allocation volume is a property of the code.
// ns_per_run is gated at >60% growth with a 5 ms absolute floor:
// wall time IS machine-dependent, so the gate is only meaningful when
// the baseline was refreshed on the reference machine, and it is
// deliberately loose — it catches a kernel falling off a performance
// cliff, not single-digit drift. Variants with no baseline entry (new
// circuits or delay models) pass.
func checkAgainst(path string, got []Variant) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want Baseline
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	ref := make(map[string]Variant, len(want.Variants))
	for _, v := range want.Variants {
		ref[v.key()] = v
	}
	const (
		growLimit = 1.25
		// Wall time gets a wider budget than bytes: allocation counts
		// are exact, but absolute ns compare across processes — and the
		// host's sustained clock drifts ±35% between runs, which the
		// interleaved min-of-reps protocol cancels within a process but
		// cannot cancel against a committed baseline. The gate exists to
		// catch step regressions (an engine falling off its fast path is
		// ≥2×), not mood swings.
		nsGrowLimit = 1.6
		minGrowthB  = 4 << 10   // ignore regressions under 4 KiB/run (seed-set jitter)
		minGrowthNS = 5_000_000 // ignore regressions under 5 ms/run (scheduler noise)
	)
	var bad []string
	for _, v := range got {
		w, ok := ref[v.key()]
		if !ok {
			continue // new variant: no baseline yet
		}
		limit := int64(float64(w.BytesPerOp) * growLimit)
		if floor := w.BytesPerOp + minGrowthB; limit < floor {
			limit = floor
		}
		if v.BytesPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %d B/run vs baseline %d (limit %d)",
				v.key(), v.BytesPerOp, w.BytesPerOp, limit))
		}
		nsLimit := int64(float64(w.NsPerOp) * nsGrowLimit)
		if floor := w.NsPerOp + minGrowthNS; nsLimit < floor {
			nsLimit = floor
		}
		if v.NsPerOp > nsLimit {
			bad = append(bad, fmt.Sprintf("%s: %.1f ms/run vs baseline %.1f (limit %.1f)",
				v.key(), float64(v.NsPerOp)/1e6, float64(w.NsPerOp)/1e6, float64(nsLimit)/1e6))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// measure times complete single-worker estimator runs of the
// BenchmarkEstimateStreaming configuration for one circuit × model pair:
// `reps` timed blocks of `iterations` runs (seeds 1..iterations), of
// which the fastest block counts — see the package comment for why
// min-of-reps is the protocol. Allocations are counted separately over
// one fixed post-warm-up pass, outside any timed block.
func measure(c *netlist.Circuit, model delay.Model, iterations, reps int, kernels *sim.ProgramCache) (Variant, error) {
	v := Variant{Circuit: c.Name, Model: model.Name()}
	gen := vectorgen.HighActivity{N: c.NumInputs(), MinActivity: 0.3}
	ev := power.NewEvaluator(c, model, power.Params{})
	ev.UseSpeculative(kernels, c.Name+"/"+model.Name())
	src, err := vectorgen.NewStreamSource(ev, gen)
	if err != nil {
		return v, err
	}
	src.Workers = 1
	est, err := evt.New(src, evt.Config{Epsilon: 0.001, MaxHyperSamples: 8})
	if err != nil {
		return v, err
	}
	// One untimed pass over the full seed set builds the lazily
	// constructed engine state (packed buffers, the executor, scratch
	// sized for the largest run any seed produces), so both the counted
	// allocation pass and the timed blocks are steady state.
	res := est.Run(stats.NewRNG(1))
	v.Units = res.Units
	v.SpecStripes = res.Engine.SpecStripes
	v.SpecPatched = res.Engine.SpecPatched
	v.SpecFallbacks = res.Engine.SpecFallbacks
	for i := 1; i < iterations; i++ {
		est.Run(stats.NewRNG(uint64(i) + 1))
	}
	// Counted allocation pass: TotalAlloc/Mallocs are monotonic, so the
	// deltas are exact whatever the GC does in between.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iterations; i++ {
		est.Run(stats.NewRNG(uint64(i) + 1))
	}
	runtime.ReadMemStats(&m1)
	v.AllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / int64(iterations)
	v.BytesPerOp = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iterations)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < iterations; i++ {
			est.Run(stats.NewRNG(uint64(i) + 1))
		}
		per := time.Since(t0).Nanoseconds() / int64(iterations)
		if v.NsPerOp == 0 || per < v.NsPerOp {
			v.NsPerOp = per
		}
	}
	v.MsPerOp = float64(v.NsPerOp) / 1e6
	return v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchstream:", err)
	os.Exit(1)
}
