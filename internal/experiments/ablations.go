package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/evt"
	"repro/internal/stats"
	"repro/internal/weibull"
)

// AblationRow is one setting of an ablation sweep: error statistics of the
// estimator with one knob changed.
type AblationRow struct {
	Setting  string
	MeanErr  float64 // signed mean relative error
	WorstErr float64 // largest |relative error| (signed)
	PctOver  float64 // % of runs with |err| > ε
	AvgUnits float64
}

// ablate runs the estimator `runs` times under a config-mutating function.
func (r *Runner) ablate(circuit, kind string, size, runs int, label string,
	mutate func(*evt.Config)) (AblationRow, error) {
	pop, err := r.population(circuit, kind, size)
	if err != nil {
		return AblationRow{}, err
	}
	actual := pop.TrueMax()
	cfg := evt.Config{Epsilon: epsilon, Confidence: confidence}
	if mutate != nil {
		mutate(&cfg)
	}
	est, err := evt.New(pop, cfg)
	if err != nil {
		return AblationRow{}, err
	}
	row := AblationRow{Setting: label}
	over := 0
	var unitSum int
	var errSum float64
	for run := 0; run < runs; run++ {
		res := est.Run(stats.NewRNG(r.cfg.Seed ^ hashString(label+fmt.Sprint(run))))
		e := evt.RelativeError(res.Estimate, actual)
		errSum += e
		unitSum += res.Units
		if math.Abs(e) > math.Abs(row.WorstErr) {
			row.WorstErr = e
		}
		if math.Abs(e) > epsilon {
			over++
		}
	}
	row.MeanErr = errSum / float64(runs)
	row.PctOver = 100 * float64(over) / float64(runs)
	row.AvgUnits = float64(unitSum) / float64(runs)
	return row, nil
}

// AblationSampleSize sweeps the sample size n (paper fixes n = 30 after
// Figure 1's convergence study).
func (r *Runner) AblationSampleSize(circuit string, sizes []int, runs int) ([]AblationRow, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 10, 30, 50}
	}
	if runs <= 0 {
		runs = 20
	}
	r.cfg.logf("Ablation: sample size n on %s…", circuit)
	rows := make([]AblationRow, 0, len(sizes))
	for _, n := range sizes {
		n := n
		row, err := r.ablate(circuit, "high", r.cfg.PopSize, runs,
			fmt.Sprintf("n=%d", n), func(c *evt.Config) { c.SampleSize = n })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationHyperSamples sweeps m, the samples per hyper-sample (paper fixes
// m = 10 after Figure 2's normality study).
func (r *Runner) AblationHyperSamples(circuit string, ms []int, runs int) ([]AblationRow, error) {
	if len(ms) == 0 {
		ms = []int{5, 10, 50}
	}
	if runs <= 0 {
		runs = 20
	}
	r.cfg.logf("Ablation: hyper-sample size m on %s…", circuit)
	rows := make([]AblationRow, 0, len(ms))
	for _, m := range ms {
		m := m
		row, err := r.ablate(circuit, "high", r.cfg.PopSize, runs,
			fmt.Sprintf("m=%d", m), func(c *evt.Config) { c.SamplesPerHyper = m })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationFiniteCorrection compares the raw μ̂ estimator against the §3.4
// finite-population quantile correction.
func (r *Runner) AblationFiniteCorrection(circuit string, runs int) ([]AblationRow, error) {
	if runs <= 0 {
		runs = 20
	}
	r.cfg.logf("Ablation: finite-population correction on %s…", circuit)
	with, err := r.ablate(circuit, "high", r.cfg.PopSize, runs, "corrected (§3.4)", nil)
	if err != nil {
		return nil, err
	}
	without, err := r.ablate(circuit, "high", r.cfg.PopSize, runs, "raw μ̂",
		func(c *evt.Config) { c.DisableFiniteCorrection = true })
	if err != nil {
		return nil, err
	}
	return []AblationRow{with, without}, nil
}

// AblationDelayModel runs the full pipeline under each delay model —
// the paper's contribution 2 (delay-model independence of the method).
// Each model induces a different population, so rows are not comparable in
// mW, only in estimator behaviour.
func (r *Runner) AblationDelayModel(circuit string, runs int) ([]AblationRow, error) {
	if runs <= 0 {
		runs = 20
	}
	r.cfg.logf("Ablation: delay models on %s…", circuit)
	rows := make([]AblationRow, 0, 4)
	saved := r.cfg.DelayModel
	defer func() { r.cfg.DelayModel = saved }()
	for _, model := range []string{"zero", "unit", "fanout", "table"} {
		r.cfg.DelayModel = model
		row, err := r.ablate(circuit, "high", r.cfg.PopSize, runs, "delay="+model, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FitCompareRow reports the MLE-vs-LSQ stability comparison of §3.1.
type FitCompareRow struct {
	Method    string
	Failures  int     // fits that returned an error
	MedianErr float64 // median |μ̂ − actual| / actual over successful fits
	WorstErr  float64 // worst |relative error|
}

// AblationMLEvsLSQ fits repeated m-sized maxima sets with both estimators,
// reproducing the paper's claim that curve fitting is unstable for small
// sample counts while the MLE is robust.
func (r *Runner) AblationMLEvsLSQ(circuit string, m, reps int) ([]FitCompareRow, error) {
	if m <= 0 {
		m = 10
	}
	if reps <= 0 {
		reps = 50
	}
	pop, err := r.population(circuit, "high", r.cfg.PopSize)
	if err != nil {
		return nil, err
	}
	actual := pop.TrueMax()
	r.cfg.logf("Ablation: MLE vs least-squares fit on %s…", circuit)
	rng := stats.NewRNG(r.cfg.Seed ^ hashString("mle-vs-lsq/"+circuit))
	var mleErrs, lsqErrs, pwmErrs []float64
	mleFail, lsqFail, pwmFail := 0, 0, 0
	for rep := 0; rep < reps; rep++ {
		maxima := make([]float64, m)
		for i := range maxima {
			mx := math.Inf(-1)
			for j := 0; j < 30; j++ {
				if p := pop.SamplePower(rng); p > mx {
					mx = p
				}
			}
			maxima[i] = mx
		}
		if fit, err := weibull.FitMLE(maxima); err == nil {
			mleErrs = append(mleErrs, math.Abs(fit.Mu-actual)/actual)
		} else {
			mleFail++
		}
		if fit, err := weibull.FitLSQ(maxima); err == nil {
			lsqErrs = append(lsqErrs, math.Abs(fit.Mu-actual)/actual)
		} else {
			lsqFail++
		}
		if fit, err := weibull.FitPWM(maxima); err == nil {
			pwmErrs = append(pwmErrs, math.Abs(fit.Mu-actual)/actual)
		} else {
			pwmFail++
		}
	}
	mk := func(method string, errs []float64, failures int) FitCompareRow {
		row := FitCompareRow{Method: method, Failures: failures}
		if len(errs) > 0 {
			s := stats.Summarize(errs)
			row.MedianErr = s.Median
			row.WorstErr = s.Max
		}
		return row
	}
	return []FitCompareRow{
		mk("MLE (profile, α≥2)", mleErrs, mleFail),
		mk("least squares", lsqErrs, lsqFail),
		mk("L-moments (PWM)", pwmErrs, pwmFail),
	}, nil
}

// MarkdownAblation renders ablation rows.
func MarkdownAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| Setting | Mean err | Worst err | % runs > ε | Avg units |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %+.2f%% | %+.2f%% | %.0f%% | %.0f |\n",
			r.Setting, 100*r.MeanErr, 100*r.WorstErr, r.PctOver, r.AvgUnits)
	}
	return b.String()
}

// MarkdownFitCompare renders the MLE-vs-LSQ comparison.
func MarkdownFitCompare(rows []FitCompareRow) string {
	var b strings.Builder
	b.WriteString("### Ablation — MLE vs least-squares curve fitting (§3.1)\n\n")
	b.WriteString("| Method | Fit failures | Median |err| | Worst |err| |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.2f%% | %.2f%% |\n", r.Method, r.Failures, 100*r.MedianErr, 100*r.WorstErr)
	}
	return b.String()
}
