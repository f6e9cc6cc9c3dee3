package evt

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/stats"
)

// traceRecords extracts the HyperRecords of a run's trace — the exact
// per-hyper-sample data a shard would ship back to a coordinator.
func traceRecords(r Result) []HyperRecord {
	recs := make([]HyperRecord, 0, len(r.Trace))
	for _, hs := range r.Trace {
		recs = append(recs, hs.HyperRecord)
	}
	return recs
}

// foldAll adds recs to a fresh Fold in order, as the fleet coordinator
// and the sharded reference do.
func foldAll(cfg Config, recs []HyperRecord) Result {
	f := NewFold(cfg)
	for _, rec := range recs {
		f.Add(rec)
	}
	return f.Result()
}

// TestFoldMatchesRun is the merge half of the distributed determinism
// contract at its smallest scope: folding the records of a sequential
// run reproduces that run's statistical fields to the last bit, both
// for a converged run and for one that exhausts the cap.
func TestFoldMatchesRun(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	for _, cfg := range []Config{
		{Epsilon: 0.01, MaxHyperSamples: 100},
		{Epsilon: 0.00001, MaxHyperSamples: 8}, // never converges: cap path
	} {
		est, err := New(pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := est.Run(stats.NewRNG(7))
		got := foldAll(cfg, traceRecords(want))
		if statFields(got) != statFields(want) {
			t.Errorf("fold diverged from run (eps=%v):\n got  %+v\n want %+v",
				cfg.Epsilon, statFields(got), statFields(want))
		}
	}
}

// TestFoldIgnoresOverrun: records past the stopping point (the shards a
// fleet computed before the early-stop cancel reached them) and records
// past MaxHyperSamples must not perturb the folded result.
func TestFoldIgnoresOverrun(t *testing.T) {
	pop := betaLikePopulation(20000, 31)
	for _, tc := range []struct {
		cfg       Config
		converges bool
	}{
		{Config{Epsilon: 0.01, MaxHyperSamples: 100}, true},
		{Config{Epsilon: 0.00001, MaxHyperSamples: 8}, false},
	} {
		cfg := tc.cfg
		est, err := New(pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := est.Run(stats.NewRNG(7))
		if want.Converged != tc.converges {
			t.Fatalf("eps=%v: run converged %v at k=%d, want %v", cfg.Epsilon, want.Converged, want.HyperSamples, tc.converges)
		}
		extra := append(traceRecords(want),
			HyperRecord{Estimate: 99, Units: 300, ObservedMax: 50},
			HyperRecord{Estimate: 1, Units: 300, ObservedMax: 0.1})
		got := foldAll(cfg, extra)
		if statFields(got) != statFields(want) {
			t.Errorf("eps=%v: overrun records changed the folded result:\n got  %+v\n want %+v",
				cfg.Epsilon, statFields(got), statFields(want))
		}
	}
}

// TestFoldSingleAndEmpty covers the degenerate shapes: one record (no
// deviation exists: an unbounded interval, like MaxHyperSamples = 1)
// and no records at all (a run cancelled before its first
// hyper-sample). With one record the running mean is the record's
// estimate, bit for bit.
func TestFoldSingleAndEmpty(t *testing.T) {
	cfg := Config{}
	one := foldAll(cfg, []HyperRecord{{Estimate: 4.2, Units: 300, ObservedMax: 4.0}})
	if one.HyperSamples != 1 || one.Estimate != 4.2 || one.Units != 300 || one.SigmaSq != 0 || one.Converged ||
		!math.IsInf(one.CIHigh, 1) || !math.IsInf(one.CILow, -1) || !math.IsInf(one.RelErr, 1) {
		t.Errorf("single-record fold wrong: %+v", one)
	}
	empty := foldAll(cfg, nil)
	if empty.HyperSamples != 0 || empty.Units != 0 || !math.IsInf(empty.ObservedMax, -1) {
		t.Errorf("empty fold wrong: %+v", empty)
	}
}

// TestHyperRecordJSONRoundTrip: the wire form must round-trip float64
// bits exactly, or a remote shard could silently break the bit-identity
// guarantee. Go's shortest-form float encoding guarantees this; the test
// pins it against adversarial (denormal, epsilon-separated) values.
func TestHyperRecordJSONRoundTrip(t *testing.T) {
	recs := []HyperRecord{
		{Estimate: 1.0 / 3.0, Units: 300, ObservedMax: math.Nextafter(2, 3)},
		{Estimate: 5e-324, Units: 1, ObservedMax: 1.7976931348623157e308},
		{Estimate: 9.869604401089358, Units: 600, ObservedMax: 0},
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var back []HyperRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if math.Float64bits(back[i].Estimate) != math.Float64bits(recs[i].Estimate) ||
			math.Float64bits(back[i].ObservedMax) != math.Float64bits(recs[i].ObservedMax) ||
			back[i].Units != recs[i].Units {
			t.Errorf("record %d did not round-trip: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

// TestCheckpointValidateEdgeCases pins Validate's rejection surface: the
// corruptions a journal replay or a shard resume must never accept.
func TestCheckpointValidateEdgeCases(t *testing.T) {
	good := Checkpoint{
		Records: []HyperRecord{{Estimate: 4.1, Units: 300, ObservedMax: 4.0}, {Estimate: 4.3, Units: 300, ObservedMax: 3.9}},
		RNG:     stats.NewRNG(1).State(),
	}
	if err := good.Validate(Config{}); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"no records (hyper-sample 0)", func(cp *Checkpoint) { cp.Records = nil }},
		{"zero RNG state", func(cp *Checkpoint) { cp.RNG = [4]uint64{} }},
		{"fewer units than a hyper-sample", func(cp *Checkpoint) { cp.Records[1].Units = 1 }},
		{"negative units", func(cp *Checkpoint) { cp.Records[0].Units = -300 }},
		{"NaN estimate", func(cp *Checkpoint) { cp.Records[1].Estimate = math.NaN() }},
		{"Inf estimate", func(cp *Checkpoint) { cp.Records[0].Estimate = math.Inf(1) }},
		{"NaN observed max", func(cp *Checkpoint) { cp.Records[0].ObservedMax = math.NaN() }},
		{"Inf observed max", func(cp *Checkpoint) { cp.Records[1].ObservedMax = math.Inf(-1) }},
		{"estimate below observed max", func(cp *Checkpoint) { cp.Records[1].Estimate = 3 }},
	}
	for _, tc := range cases {
		cp := good
		cp.Records = append([]HyperRecord(nil), good.Records...)
		tc.mutate(&cp)
		if err := cp.Validate(Config{}); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", tc.name)
		}
		// A corrupt checkpoint must also be refused at config validation,
		// the gate the service resume path goes through.
		if err := (Config{Resume: &cp}).Validate(); err == nil {
			t.Errorf("%s: corrupt resume accepted by Config.Validate", tc.name)
		}
	}
}

// TestHyperRecordValidate: every record a run produces passes, at the
// paper's m·n and at another, fallbacks after every retry included, and
// each corruption of a field fails on its own.
func TestHyperRecordValidate(t *testing.T) {
	// Equal maxima have no interior likelihood maximum, so every attempt
	// fails and each hyper-sample falls back after maxFitRetries retries.
	constant := InfiniteSource(func(*stats.RNG) float64 { return 1 })
	for _, tc := range []struct {
		src      Source
		cfg      Config
		fallback bool
	}{
		{betaLikePopulation(20000, 31), Config{Epsilon: 0.01, MaxHyperSamples: 100}, false},
		{betaLikePopulation(20000, 31), Config{SampleSize: 12, SamplesPerHyper: 5, MaxHyperSamples: 30}, false},
		{constant, Config{MaxHyperSamples: 3}, true},
	} {
		est, err := New(tc.src, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := est.Run(stats.NewRNG(7))
		for i, hs := range res.Trace {
			if hs.FallbackMax != tc.fallback {
				t.Fatalf("%+v: hyper-sample %d fell back %v, want %v", tc.cfg, i, hs.FallbackMax, tc.fallback)
			}
			if err := hs.HyperRecord.Validate(tc.cfg); err != nil {
				t.Errorf("%+v: record %d of a run rejected: %v", tc.cfg, i, err)
			}
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	good := HyperRecord{Estimate: 2, Units: 600, ObservedMax: 1.5}
	if err := good.Validate(Config{}); err != nil {
		t.Fatalf("%+v rejected: %v", good, err)
	}
	small := Config{SampleSize: 12, SamplesPerHyper: 5}
	for _, ok := range []HyperRecord{{Estimate: 1.5, Units: 60, ObservedMax: 1.5}, {Estimate: 2, Units: 300, ObservedMax: 1}} {
		if err := ok.Validate(small); err != nil {
			t.Errorf("%+v rejected at m·n = 60: %v", ok, err)
		}
	}
	for name, bad := range map[string]HyperRecord{
		"NaN estimate":                {Estimate: nan, Units: 600, ObservedMax: 1.5},
		"infinite estimate":           {Estimate: inf, Units: 600, ObservedMax: 1.5},
		"NaN observed max":            {Estimate: 2, Units: 600, ObservedMax: nan},
		"infinite observed max":       {Estimate: 2, Units: 600, ObservedMax: -inf},
		"no units":                    {Estimate: 2, Units: 0, ObservedMax: 1.5},
		"negative units":              {Estimate: 2, Units: -300, ObservedMax: 1.5},
		"part of an attempt":          {Estimate: 2, Units: 450, ObservedMax: 1.5},
		"more attempts than retries":  {Estimate: 2, Units: 1800, ObservedMax: 1.5},
		"estimate below observed max": {Estimate: 1, Units: 600, ObservedMax: 1.5},
	} {
		if err := bad.Validate(Config{}); err == nil {
			t.Errorf("%s: %+v accepted", name, bad)
		}
	}
	if err := (HyperRecord{Estimate: 2, Units: 360, ObservedMax: 1}).Validate(small); err == nil {
		t.Error("six attempts of 60 units accepted")
	}
}
