package stats

import (
	"math"
	"sync"
)

// The estimator re-forms its interval (the paper's Eqn. 3.8) after every
// hyper-sample from the same few quantiles: the confidence level is
// fixed per run and the degrees of freedom step through 1, 2, 3, ….
// Each quantile is a root solve over tens of incomplete-beta
// evaluations, so TwoSidedT keeps the ones it solves in a bounded,
// process-wide table.

// quantileMemoCap bounds the table. Past it, quantiles are solved and
// not stored, so its memory stays bounded whatever callers ask for.
const quantileMemoCap = 4096

// quantileKey is the exact bits of a t quantile's probability and
// degrees of freedom; as bits, NaN is a key like any other.
type quantileKey struct {
	p, df uint64
}

var quantileMemo = struct {
	sync.Mutex
	m map[quantileKey]float64
}{m: make(map[quantileKey]float64)}

// memoQuantile returns the p-quantile of Student's t with df degrees of
// freedom. The table holds what the solve returned, so a hit is
// bit-identical to a cold solve. It is safe for concurrent use.
func memoQuantile(p, df float64) float64 {
	key := quantileKey{math.Float64bits(p), math.Float64bits(df)}
	quantileMemo.Lock()
	q, ok := quantileMemo.m[key]
	quantileMemo.Unlock()
	if ok {
		return q
	}
	q = StudentT{Nu: df}.Quantile(p)
	quantileMemo.Lock()
	if len(quantileMemo.m) < quantileMemoCap {
		quantileMemo.m[key] = q
	}
	quantileMemo.Unlock()
	return q
}
