// Package repro reproduces "Maximum Power Estimation Using the Limiting
// Distributions of Extreme Order Statistics" (Qiu, Wu & Pedram, DAC 1998).
//
// The public API lives in the maxpower package; internal packages provide
// the substrates (netlist, event-driven timing simulation, power model,
// vector-pair populations, hand-written statistics, the reverse-Weibull
// MLE, and the EVT estimator itself). Sampling is batched end to end:
// sources implementing evt.BatchSource supply each hyper-sample's m·n
// unit powers in one call, simulated on the circuit's compiled program
// (up to 512 pairs per stripe) across a worker pool, bit-identical to the
// scalar path for any worker count. maxpowerd serves estimation jobs over
// JSON/HTTP with per-job worker budgets. See README.md for a tour,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-vs-measured comparison. The benchmarks in bench_test.go
// regenerate every table and figure of the paper at a reduced scale (plus
// BenchmarkEstimateStreaming for the batched hot path); cmd/experiments
// produces the full versions.
package repro
