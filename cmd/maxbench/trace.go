package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vectorgen"
	"repro/maxpower"
)

// span is one timed call into a layer. Spans of one estimate share its
// Trace id; spans outside any estimate (builds, compiles) carry -1.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // monotonic, since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out only at exit.
// Calls nest: begin opens a child of the innermost open span.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	trace int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), trace: -1} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count       int
	total, self int64 // ns
}

func aggregate(spans []span) map[string]spanAgg {
	self := selfTimes(spans)
	out := make(map[string]spanAgg)
	for i, s := range spans {
		a := out[s.Name]
		a.count++
		a.total += s.End - s.Start
		a.self += self[i]
		out[s.Name] = a
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelRef names one compiled program a workload runs.
type kernelRef struct {
	circuit *netlist.Circuit
	model   delay.Model
}

// key is the kernel-cache key the maxpower facade uses.
func (k kernelRef) key() string { return k.circuit.Name + "/" + k.model.Name() }

// progStats accounts one program's simulation work in the traced pass.
type progStats struct {
	prog      *sim.Program
	compileNS int64
	stripes   int64 // stripes the traced calls evaluated
	replayed  int64 // stripes replayed through exec
	replayNS  int64
}

// traceCtx is the state of one traced pass: the spans, the kernel cache
// its evaluators share, per-program work, and the counts per-unit
// metrics divide by.
type traceCtx struct {
	tr    *tracer
	kc    *maxpower.KernelCache
	progs map[string]*progStats

	genUnits, batchUnits, sampleUnits int64
	spec                              sim.SpecStats
	hyper                             hyperStats

	kept []keptBatch // batches awaiting kernel replay
	pool []*sim.PackedPairs
}

// hyperStats sums the hyper-samples of the traced estimates.
type hyperStats struct {
	hyper, fits, retries, fallbacks int64
	fitNS                           int64
}

func (h *hyperStats) add(res maxpower.Result) {
	for _, hs := range res.Trace {
		h.hyper++
		h.fits += int64(hs.Retries + 1)
		h.retries += int64(hs.Retries)
		h.fitNS += int64(hs.FitTime)
		if hs.FallbackMax {
			h.fallbacks++
		}
	}
}

type keptBatch struct {
	key string
	pp  *sim.PackedPairs
	max int // stripes to replay (0 = all)
}

func newTraceCtx() *traceCtx {
	return &traceCtx{tr: newTracer(), kc: maxpower.NewKernelCache(8), progs: make(map[string]*progStats)}
}

// compile builds ref's program into the pass's fresh kernel cache and
// times it, the way the facade's first evaluator would: fingerprint,
// lookup, CompileModel on the miss.
func (tc *traceCtx) compile(ref kernelRef) {
	if tc.progs[ref.key()] != nil {
		return
	}
	id := tc.tr.begin("sim.compile")
	t0 := time.Now()
	prog := tc.kc.Get(ref.key(), sim.FingerprintModel(ref.circuit, ref.model, sim.CompileOptions{}), func() *sim.Program {
		return sim.CompileModel(ref.circuit, ref.model, sim.CompileOptions{})
	})
	ns := int64(time.Since(t0))
	tc.tr.end(id)
	tc.progs[ref.key()] = &progStats{prog: prog, compileNS: ns}
}

// evaluator builds ref's power evaluator exactly as the facade does:
// speculative kernels through the shared cache, then cloned as often as
// the facade clones it before simulating (NewStreamSource and its worker
// pool clone twice, vectorgen.Build once). It resolves the program, so
// the cache lookup is paid here and not in the first batch.
func (tc *traceCtx) evaluator(ref kernelRef, clones int) *power.Evaluator {
	ev := power.NewEvaluator(ref.circuit, ref.model, power.Params{})
	ev.UseSpeculative(tc.kc, ref.key())
	for i := 0; i < clones; i++ {
		ev = ev.Clone()
	}
	ev.StripeWords()
	return ev
}

// batch runs power.BatchMWPacked under a span and accounts its stripes.
func (tc *traceCtx) batch(key string, ev *power.Evaluator, pp *sim.PackedPairs, out []float64) error {
	id := tc.tr.begin("power.batch")
	err := ev.BatchMWPacked(pp, out)
	tc.tr.end(id)
	ps := tc.progs[key]
	lanes := ps.prog.StripeLanes()
	ps.stripes += int64((pp.N + lanes - 1) / lanes)
	tc.batchUnits += int64(pp.N)
	return err
}

// keep copies a batch for the kernel replay, under a trace.* span so the
// copy counts as tracing overhead and not as any layer's time.
func (tc *traceCtx) keep(key string, pp *sim.PackedPairs, maxStripes int) {
	id := tc.tr.begin("trace.copy")
	if len(tc.pool) == len(tc.kept) {
		tc.pool = append(tc.pool, &sim.PackedPairs{})
	}
	cp := tc.pool[len(tc.kept)]
	cp.Reset(pp.Inputs, pp.N)
	copy(cp.In1, pp.In1)
	copy(cp.In2, pp.In2)
	tc.kept = append(tc.kept, keptBatch{key: key, pp: cp, max: maxStripes})
	tc.tr.end(id)
}

// replay runs the kept batches of one estimate or build through
// sim.Speculative.Run, timing the kernel alone; the rest of the batches'
// time is the energy fold. Like the evaluator it stands for, the
// executor is new for each estimate, so the kernel's time includes
// growing its scratch. It runs outside any estimate span.
func (tc *traceCtx) replay() {
	if len(tc.kept) == 0 {
		return
	}
	trace := tc.tr.trace
	tc.tr.trace = -1
	id := tc.tr.begin("sim.replay")
	execs := make(map[string]*sim.Speculative)
	for _, kb := range tc.kept {
		ps := tc.progs[kb.key]
		exec := execs[kb.key]
		if exec == nil {
			exec = sim.NewSpeculative(ps.prog)
			exec.LaneStats = false // as power.Evaluator runs it
			execs[kb.key] = exec
		}
		lanes := ps.prog.StripeLanes()
		n := (kb.pp.N + lanes - 1) / lanes
		if kb.max > 0 && n > kb.max {
			n = kb.max
		}
		for s := 0; s < n; s++ {
			t0 := time.Now()
			exec.Run(kb.pp, s)
			ps.replayNS += int64(time.Since(t0))
		}
		ps.replayed += int64(n)
	}
	tc.tr.end(id)
	tc.tr.trace = trace
	tc.kept = tc.kept[:0]
}

// tracedStream is the benchmark's own composition of the streaming
// source: GeneratePacked then BatchMWPacked over one reused batch, which
// is what vectorgen.StreamSource.SampleBatch does at Workers: 1, with a
// span around each layer call. Size is 0 like a StreamSource without a
// declared population size.
type tracedStream struct {
	tc  *traceCtx
	key string
	ev  *power.Evaluator
	gen vectorgen.Generator
	pp  sim.PackedPairs
	err error
}

func (s *tracedStream) SamplePower(rng *stats.RNG) float64 {
	var one [1]float64
	s.SampleBatch(rng, one[:])
	return one[0]
}

func (s *tracedStream) SampleBatch(rng *stats.RNG, dst []float64) {
	tr := s.tc.tr
	id := tr.begin("vectorgen.sample")
	g := tr.begin("vectorgen.gen_pack")
	s.pp.Reset(s.gen.Inputs(), len(dst))
	vectorgen.GeneratePacked(s.gen, rng, &s.pp)
	tr.end(g)
	if err := s.tc.batch(s.key, s.ev, &s.pp, dst); err != nil && s.err == nil {
		s.err = err
	}
	tr.end(id)
	s.tc.genUnits += int64(len(dst))
	s.tc.sampleUnits += int64(len(dst))
	s.tc.keep(s.key, &s.pp, 0)
}

func (s *tracedStream) Size() int { return 0 }

// SpecCounters makes Result.Engine report the speculation counters, as
// it does for a StreamSource.
func (s *tracedStream) SpecCounters() (stripes, patched, fallbacks uint64) {
	st := s.ev.SpecStats()
	return st.Stripes, st.PatchedWords, st.Fallbacks
}

// tracedPop wraps a population with a span around each SampleBatch.
type tracedPop struct {
	tc  *traceCtx
	pop *maxpower.Population
}

func (p tracedPop) SamplePower(rng *stats.RNG) float64 { return p.pop.SamplePower(rng) }

func (p tracedPop) SampleBatch(rng *stats.RNG, dst []float64) {
	id := p.tc.tr.begin("vectorgen.sample")
	p.pop.SampleBatch(rng, dst)
	p.tc.tr.end(id)
	p.tc.sampleUnits += int64(len(dst))
}

func (p tracedPop) Size() int { return p.pop.Size() }

// buildReplayStripes bounds the kernel replay of a population build: a
// sample of its stripes prices the kernel without doubling the build.
const buildReplayStripes = 64

// tracedBuild redoes a population build the way vectorgen.Build does it
// at Workers: 1 — generate every pair into one packed batch, then one
// batch evaluation — with spans around both layers, and returns the
// powers so the caller can check them against the real build.
func (tc *traceCtx) tracedBuild(ref kernelRef, gen vectorgen.Generator, size int, seed uint64) ([]float64, error) {
	tc.compile(ref)
	id := tc.tr.begin("vectorgen.build")
	ev := tc.evaluator(ref, 1)
	pp := &sim.PackedPairs{}
	g := tc.tr.begin("vectorgen.gen_pack")
	pp.Reset(gen.Inputs(), size)
	vectorgen.GeneratePacked(gen, stats.NewRNG(seed), pp)
	tc.tr.end(g)
	powers := make([]float64, size)
	err := tc.batch(ref.key(), ev, pp, powers)
	tc.tr.end(id)
	tc.genUnits += int64(size)
	tc.spec.Add(ev.SpecStats())
	tc.keep(ref.key(), pp, buildReplayStripes)
	tc.replay()
	return powers, err
}
