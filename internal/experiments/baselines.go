package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/power"
	"repro/internal/search"
	"repro/internal/srs"
	"repro/internal/stats"
)

// BaselineRow compares every maximum-power technique on one circuit — an
// extension table beyond the paper (its §I taxonomy made quantitative).
// All lower-bound searches report the fraction of the population's true
// maximum they reach, plus their simulation cost.
type BaselineRow struct {
	Circuit   string
	ActualMax float64 // population true max (mW)

	EVTEstimate float64 // EVT estimate (mW)
	EVTUnits    int

	SRSBest  float64 // best power found by SRS with the EVT budget
	SRSUnits int

	GreedyBest  float64
	GreedyUnits int

	GeneticBest  float64
	GeneticUnits int
}

// Baselines runs the EVT estimator, equal-budget SRS, greedy search and
// genetic search against each circuit's unconstrained population.
func (r *Runner) Baselines() ([]BaselineRow, error) {
	cfg := r.cfg
	cfg.logf("Baselines: EVT vs SRS vs greedy vs genetic…")
	rows := make([]BaselineRow, 0, len(cfg.Circuits))
	for _, circuit := range cfg.Circuits {
		pop, err := r.population(circuit, "high", cfg.PopSize)
		if err != nil {
			return nil, err
		}
		row := BaselineRow{Circuit: circuit, ActualMax: pop.TrueMax()}

		est, err := evt.New(pop, evt.Config{Epsilon: epsilon, Confidence: confidence})
		if err != nil {
			return nil, err
		}
		res := est.Run(stats.NewRNG(cfg.Seed ^ hashString("base-evt/"+circuit)))
		row.EVTEstimate = res.Estimate
		row.EVTUnits = res.Units

		row.SRSUnits = res.Units
		row.SRSBest = srs.Estimate(pop, res.Units, stats.NewRNG(cfg.Seed^hashString("base-srs/"+circuit)))

		// The searches run against the live simulator (they choose their
		// own vectors), under the same delay model as the population.
		c, err := bench.Generate(circuit)
		if err != nil {
			return nil, err
		}
		model, err := delay.ByName(cfg.DelayModel)
		if err != nil {
			return nil, err
		}
		eval := power.NewEvaluator(c, model, power.Params{})
		g := search.Greedy(eval, search.GreedyOptions{Restarts: 4, Seed: cfg.Seed ^ hashString("base-greedy/"+circuit)})
		row.GreedyBest = g.BestPower
		row.GreedyUnits = g.Evaluations
		ga := search.Genetic(eval, search.GeneticOptions{Population: 24, Generations: 25, Seed: cfg.Seed ^ hashString("base-ga/"+circuit)})
		row.GeneticBest = ga.BestPower
		row.GeneticUnits = ga.Evaluations

		cfg.logf("  %s: evt %.3f (%d u) srs %.3f greedy %.3f (%d u) ga %.3f (%d u)",
			circuit, row.EVTEstimate, row.EVTUnits, row.SRSBest,
			row.GreedyBest, row.GreedyUnits, row.GeneticBest, row.GeneticUnits)
		rows = append(rows, row)
	}
	return rows, nil
}

// MarkdownBaselines renders the baselines extension table.
func MarkdownBaselines(rows []BaselineRow) string {
	var b strings.Builder
	b.WriteString("### Extension — all techniques side by side (unconstrained populations)\n\n")
	b.WriteString("Search methods pick their own vectors, so they may exceed the sampled population's maximum; percentages are relative to that maximum.\n\n")
	b.WriteString("| Circuit | Pop. max (mW) | EVT est. | EVT units | SRS (same units) | Greedy | Greedy units | Genetic | Genetic units |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v/r.ActualMax) }
		fmt.Fprintf(&b, "| %s | %.3f | %s | %d | %s | %s | %d | %s | %d |\n",
			r.Circuit, r.ActualMax, pct(r.EVTEstimate), r.EVTUnits,
			pct(r.SRSBest), pct(r.GreedyBest), r.GreedyUnits,
			pct(r.GeneticBest), r.GeneticUnits)
	}
	return b.String()
}
