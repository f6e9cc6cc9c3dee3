package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/evt"
	"repro/internal/srs"
	"repro/internal/stats"
)

// EfficiencyRow is one circuit's row in Table 1 (unconstrained) or
// Tables 3–4 (constrained): the paper's efficiency comparison.
type EfficiencyRow struct {
	Circuit string
	// Y is the qualified-unit fraction (power within ε of the maximum).
	Y float64
	// MaxUnits/MinUnits/AvgUnits summarize units needed by our approach
	// over the repeated runs.
	MaxUnits int
	MinUnits int
	AvgUnits float64
	// SRSUnits is the theoretical SRS budget log(1−l)/log(1−Y).
	SRSUnits float64
	// MaxErr/MinErr are the largest and smallest |relative error| over the
	// runs (columns 7–8).
	MaxErr float64
	MinErr float64
	// MeanErr is the signed mean error (not in the paper's table; kept for
	// diagnosis).
	MeanErr float64
	// ActualMax is the population's true maximum power (mW).
	ActualMax float64
}

// runEfficiency produces one efficiency row for a circuit/population kind.
func (r *Runner) runEfficiency(circuit, kind string, size int) (EfficiencyRow, error) {
	cfg := r.cfg
	pop, err := r.population(circuit, kind, size)
	if err != nil {
		return EfficiencyRow{}, err
	}
	actual := pop.TrueMax()
	row := EfficiencyRow{
		Circuit:   circuit,
		Y:         pop.QualifiedFraction(epsilon),
		SRSUnits:  srs.TheoreticalUnits(pop.QualifiedFraction(epsilon), confidence),
		MinUnits:  math.MaxInt,
		MinErr:    math.Inf(1),
		ActualMax: actual,
	}
	est, err := evt.New(pop, evt.Config{Epsilon: epsilon, Confidence: confidence})
	if err != nil {
		return EfficiencyRow{}, err
	}
	var unitSum int
	var errSum float64
	for run := 0; run < cfg.Runs; run++ {
		res := est.Run(stats.NewRNG(cfg.Seed ^ hashString(fmt.Sprintf("%s/%s/run%d", circuit, kind, run))))
		e := evt.RelativeError(res.Estimate, actual)
		abs := math.Abs(e)
		errSum += e
		unitSum += res.Units
		if res.Units > row.MaxUnits {
			row.MaxUnits = res.Units
		}
		if res.Units < row.MinUnits {
			row.MinUnits = res.Units
		}
		if abs > row.MaxErr {
			row.MaxErr = abs
		}
		if abs < row.MinErr {
			row.MinErr = abs
		}
	}
	row.AvgUnits = float64(unitSum) / float64(cfg.Runs)
	row.MeanErr = errSum / float64(cfg.Runs)
	cfg.logf("  %s/%s: Y=%.6f avgUnits=%.0f srs=%.0f maxErr=%.1f%%",
		circuit, kind, row.Y, row.AvgUnits, row.SRSUnits, 100*row.MaxErr)
	return row, nil
}

// Table1 reproduces the paper's Table 1: efficiency comparison for
// unconstrained (high-activity) input sequences.
func (r *Runner) Table1() ([]EfficiencyRow, error) {
	r.cfg.logf("Table 1: unconstrained efficiency (%d runs/circuit)…", r.cfg.Runs)
	return r.efficiencyTable("high", r.cfg.PopSize)
}

// Table3 reproduces Table 3: constrained inputs, per-line activity 0.7.
func (r *Runner) Table3() ([]EfficiencyRow, error) {
	r.cfg.logf("Table 3: constrained (activity 0.7) efficiency…")
	return r.efficiencyTable("c0.7", r.cfg.ConstrainedPopSize)
}

// Table4 reproduces Table 4: constrained inputs, per-line activity 0.3.
func (r *Runner) Table4() ([]EfficiencyRow, error) {
	r.cfg.logf("Table 4: constrained (activity 0.3) efficiency…")
	return r.efficiencyTable("c0.3", r.cfg.ConstrainedPopSize)
}

func (r *Runner) efficiencyTable(kind string, size int) ([]EfficiencyRow, error) {
	rows := make([]EfficiencyRow, 0, len(r.cfg.Circuits))
	for _, c := range r.cfg.Circuits {
		row, err := r.runEfficiency(c, kind, size)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// QualityRow is one circuit's row of Table 2: estimation quality of our
// approach versus SRS at fixed budgets of 2,500 / 10,000 / 20,000 units.
type QualityRow struct {
	Circuit   string
	ActualMax float64 // mW
	// OurLargestErr is the signed largest-magnitude error over the runs.
	OurLargestErr float64
	// SRSLargestErr[i] corresponds to SRSBudgets[i].
	SRSLargestErr [3]float64
	// OurPctOver is the percentage of runs with |error| > ε.
	OurPctOver float64
	// SRSPctOver[i] corresponds to SRSBudgets[i].
	SRSPctOver [3]float64
}

// SRSBudgets are the fixed SRS unit budgets of Table 2.
var SRSBudgets = [3]int{2500, 10000, 20000}

// Table2 reproduces the paper's Table 2: estimation quality comparison for
// unconstrained input sequences (shares Table 1's populations).
func (r *Runner) Table2() ([]QualityRow, error) {
	cfg := r.cfg
	cfg.logf("Table 2: estimation quality (%d runs/circuit)…", cfg.Runs)
	rows := make([]QualityRow, 0, len(cfg.Circuits))
	for _, circuit := range cfg.Circuits {
		pop, err := r.population(circuit, "high", cfg.PopSize)
		if err != nil {
			return nil, err
		}
		actual := pop.TrueMax()
		row := QualityRow{Circuit: circuit, ActualMax: actual}

		est, err := evt.New(pop, evt.Config{Epsilon: epsilon, Confidence: confidence})
		if err != nil {
			return nil, err
		}
		over := 0
		for run := 0; run < cfg.Runs; run++ {
			res := est.Run(stats.NewRNG(cfg.Seed ^ hashString(fmt.Sprintf("%s/high/run%d", circuit, run))))
			e := evt.RelativeError(res.Estimate, actual)
			if math.Abs(e) > math.Abs(row.OurLargestErr) {
				row.OurLargestErr = e
			}
			if math.Abs(e) > epsilon {
				over++
			}
		}
		row.OurPctOver = 100 * float64(over) / float64(cfg.Runs)

		for i, budget := range SRSBudgets {
			b := budget
			if b > pop.Size() {
				// Keep the comparison meaningful on trimmed populations:
				// an SRS budget ≥ |V| would trivially see everything.
				b = pop.Size() * budget / SRSBudgets[2]
			}
			qs := srs.Repeated(pop, b, cfg.Runs, actual, epsilon,
				stats.NewRNG(cfg.Seed^hashString(fmt.Sprintf("%s/srs%d", circuit, budget))))
			row.SRSLargestErr[i] = qs.LargestErr
			row.SRSPctOver[i] = 100 * qs.FracOverEps
		}
		cfg.logf("  %s: ours %.1f%%/%.0f%%  srs-2500 %.1f%%/%.0f%%",
			circuit, 100*row.OurLargestErr, row.OurPctOver,
			100*row.SRSLargestErr[0], row.SRSPctOver[0])
		rows = append(rows, row)
	}
	return rows, nil
}

// MarkdownEfficiency renders efficiency rows in the layout of Tables 1/3/4.
func MarkdownEfficiency(title string, rows []EfficiencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| Circuit | Y (qualified) | Ours MAX | Ours MIN | Ours AVE | SRS AVE (theor.) | RelErr MAX | RelErr MIN |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.6f | %d | %d | %.0f | %.0f | %.1f%% | %.2f%% |\n",
			r.Circuit, r.Y, r.MaxUnits, r.MinUnits, r.AvgUnits, r.SRSUnits,
			100*r.MaxErr, 100*r.MinErr)
	}
	return b.String()
}

// MarkdownQuality renders Table 2's layout.
func MarkdownQuality(rows []QualityRow) string {
	var b strings.Builder
	b.WriteString("### Table 2 — Estimation quality, unconstrained inputs\n\n")
	b.WriteString("| Circuit | Actual max (mW) | Ours largest err | SRS-2500 | SRS-10k | SRS-20k | Ours %>ε | SRS-2500 %>ε | SRS-10k %>ε | SRS-20k %>ε |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.3f | %+.1f%% | %+.1f%% | %+.1f%% | %+.1f%% | %.0f%% | %.0f%% | %.0f%% | %.0f%% |\n",
			r.Circuit, r.ActualMax, 100*r.OurLargestErr,
			100*r.SRSLargestErr[0], 100*r.SRSLargestErr[1], 100*r.SRSLargestErr[2],
			r.OurPctOver, r.SRSPctOver[0], r.SRSPctOver[1], r.SRSPctOver[2])
	}
	return b.String()
}
