// Package cpufeat decides, once at init, whether this machine runs the
// repository's AVX-512 kernels: the energy fold in internal/power, the
// Exp sweep and Log pass in internal/weibull, the eight-lane RNG in
// internal/stats and the settle walk and the bit-matrix transpose in
// internal/sim. All read the same answer, so a host runs all six kernels
// or none (the Exp kernel also checks that math.Exp takes its FMA path).
package cpufeat

// AVX512 reports whether the CPU has AVX-512F, AVX-512BW, AVX2, AVX and
// FMA, and the OS saves the opmask and ZMM state across context
// switches. FMA and AVX are the features under which Go's math.Exp on
// amd64 takes its FMA path (AVX2 and FMA before Go 1.23), the path the
// Exp kernel copies; every AVX-512F CPU has all three. It is false off
// amd64.
func AVX512() bool { return avx512 }
