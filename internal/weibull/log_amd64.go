package weibull

import "repro/internal/cpufeat"

// haveLogKernel reports whether logAVX512 runs here. archLog, Go's amd64
// math.Log, has one path, which no GODEBUG setting changes, so unlike
// the Exp kernel this one needs no probe: the CPU check decides, once,
// at init.
var haveLogKernel = cpufeat.AVX512()

// logAVX512 sets dst[i] to math.Log(x[i]) for i < n, copying the main
// path of archLog, Go's amd64 math.Log, eight lanes at a time. It
// returns false, with dst[:n] undefined, when any x[i] is ±0, negative,
// ±Inf or NaN, the arguments archLog handles on branches the kernel
// does not copy. Subnormals take archLog's main path and are accepted.
//
//go:noescape
func logAVX512(dst, x *float64, n int) bool
