// Package search implements the vector-search baselines the paper
// compares against in its related-work discussion: a greedy bit-flip
// hill climber in the spirit of the ATPG/weighted-transition techniques
// (Wang & Roy [5][6]) and a genetic algorithm in the spirit of K2
// (Hsiao, Rudnick & Patel [8]). Both return a high-power vector pair and
// hence a LOWER bound on the maximum power — with no error or confidence
// statement, which is precisely the gap the paper's statistical method
// fills.
package search

import (
	"math"

	"repro/internal/power"
	"repro/internal/stats"
)

// Result reports a search outcome.
type Result struct {
	// BestPower is the largest cycle power found (mW).
	BestPower float64
	// V1, V2 is the best vector pair.
	V1, V2 []bool
	// Evaluations counts simulated pairs — the cost measure comparable to
	// the estimator's Units.
	Evaluations int
}

// GreedyOptions configures Greedy.
type GreedyOptions struct {
	// Restarts is the number of random starting pairs (default 5).
	Restarts int
	// Seed drives the randomness.
	Seed uint64
}

// greedyPasses bounds Greedy's full sweeps over the bits per restart.
const greedyPasses = 4

// Greedy hill-climbs from random vector pairs: repeatedly sweep all bits
// of v1 and v2, keeping any single-bit flip that increases cycle power,
// until a full sweep yields no improvement or greedyPasses sweeps have
// run. The classic deterministic power-search baseline: fast, but stuck
// in local maxima and silent about how far the result is from the true
// maximum.
func Greedy(eval *power.Evaluator, opt GreedyOptions) Result {
	if opt.Restarts <= 0 {
		opt.Restarts = 5
	}
	rng := stats.NewRNG(opt.Seed)
	e := eval.Clone()
	n := e.Circuit().NumInputs()

	best := Result{BestPower: math.Inf(-1)}
	for r := 0; r < opt.Restarts; r++ {
		v1 := randVec(rng, n)
		v2 := randVec(rng, n)
		cur := e.CyclePowerMW(v1, v2)
		best.Evaluations++
		for pass := 0; pass < greedyPasses; pass++ {
			improved := false
			for _, vec := range [][]bool{v1, v2} {
				for i := 0; i < n; i++ {
					vec[i] = !vec[i]
					p := e.CyclePowerMW(v1, v2)
					best.Evaluations++
					if p > cur {
						cur = p
						improved = true
					} else {
						vec[i] = !vec[i]
					}
				}
			}
			if !improved {
				break
			}
		}
		if cur > best.BestPower {
			best.BestPower = cur
			best.V1 = append([]bool(nil), v1...)
			best.V2 = append([]bool(nil), v2...)
		}
	}
	return best
}

// GeneticOptions configures Genetic.
type GeneticOptions struct {
	// Population is the number of individuals (default 32).
	Population int
	// Generations bounds evolution (default 40).
	Generations int
	// Seed drives the randomness.
	Seed uint64
}

// mutationRate is Genetic's per-bit mutation probability.
const mutationRate = 0.02

// Genetic evolves vector pairs toward maximum cycle power with tournament
// selection, uniform crossover and per-bit mutation — the K2-style
// baseline. Like Greedy it yields only a lower bound.
func Genetic(eval *power.Evaluator, opt GeneticOptions) Result {
	if opt.Population <= 0 {
		opt.Population = 32
	}
	if opt.Generations <= 0 {
		opt.Generations = 40
	}
	rng := stats.NewRNG(opt.Seed)
	e := eval.Clone()
	n := e.Circuit().NumInputs()

	type indiv struct {
		genome []bool // v1 ++ v2
		power  float64
	}
	res := Result{BestPower: math.Inf(-1)}
	score := func(g []bool) float64 {
		res.Evaluations++
		return e.CyclePowerMW(g[:n], g[n:])
	}
	pop := make([]indiv, opt.Population)
	for i := range pop {
		g := randVec(rng, 2*n)
		pop[i] = indiv{genome: g, power: score(g)}
	}
	tournament := func() indiv {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if a.power >= b.power {
			return a
		}
		return b
	}
	for gen := 0; gen < opt.Generations; gen++ {
		next := make([]indiv, 0, opt.Population)
		// Elitism: carry the best individual forward unchanged.
		bestIdx := 0
		for i := range pop {
			if pop[i].power > pop[bestIdx].power {
				bestIdx = i
			}
		}
		next = append(next, pop[bestIdx])
		for len(next) < opt.Population {
			p1, p2 := tournament(), tournament()
			child := make([]bool, 2*n)
			for i := range child {
				if rng.Bool(0.5) {
					child[i] = p1.genome[i]
				} else {
					child[i] = p2.genome[i]
				}
				if rng.Bool(mutationRate) {
					child[i] = !child[i]
				}
			}
			next = append(next, indiv{genome: child, power: score(child)})
		}
		pop = next
	}
	for i := range pop {
		if pop[i].power > res.BestPower {
			res.BestPower = pop[i].power
			res.V1 = append([]bool(nil), pop[i].genome[:n]...)
			res.V2 = append([]bool(nil), pop[i].genome[n:]...)
		}
	}
	return res
}

func randVec(rng *stats.RNG, n int) []bool {
	v := make([]bool, n)
	var bits uint64
	for i := range v {
		if i%64 == 0 {
			bits = rng.Uint64()
		}
		v[i] = bits&1 != 0
		bits >>= 1
	}
	return v
}
