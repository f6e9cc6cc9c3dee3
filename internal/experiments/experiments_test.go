package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// smallCfg keeps tests fast: one small circuit, small population, few runs.
func smallCfg() Config {
	return Config{
		Circuits: []string{"C880"},
		PopSize:  3000,
		Runs:     5,
		Seed:     42,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if len(c.Circuits) != 9 {
		t.Errorf("default circuits: %v", c.Circuits)
	}
	if c.PopSize != 20000 || c.Runs != 40 || c.DelayModel != "fanout" {
		t.Errorf("defaults: %+v", c)
	}
	if c.ConstrainedPopSize != c.PopSize {
		t.Errorf("constrained default should follow PopSize")
	}
}

func TestPopulationCache(t *testing.T) {
	r := NewRunner(smallCfg())
	p1, err := r.population("C880", "high", 3000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.population("C880", "high", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("population not cached")
	}
	if _, err := r.population("C880", "martian", 100); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := r.population("nope", "high", 100); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestTable1Small(t *testing.T) {
	var log bytes.Buffer
	cfg := smallCfg()
	cfg.Log = &log
	r := NewRunner(cfg)
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	row := rows[0]
	if row.Circuit != "C880" {
		t.Error("circuit name")
	}
	if row.Y <= 0 || row.Y > 0.2 {
		t.Errorf("Y = %v", row.Y)
	}
	if row.MinUnits < 600 || row.MaxUnits < row.MinUnits {
		t.Errorf("units: min %d max %d", row.MinUnits, row.MaxUnits)
	}
	if row.AvgUnits < float64(row.MinUnits) || row.AvgUnits > float64(row.MaxUnits) {
		t.Errorf("avg units %v outside [min,max]", row.AvgUnits)
	}
	if row.SRSUnits <= 0 {
		t.Errorf("SRS units %v", row.SRSUnits)
	}
	if row.MaxErr < row.MinErr {
		t.Error("error extremes inverted")
	}
	if row.ActualMax <= 0 {
		t.Error("actual max missing")
	}
	if !strings.Contains(log.String(), "Table 1") {
		t.Error("no progress log")
	}
	md := MarkdownEfficiency("Table 1", rows)
	if !strings.Contains(md, "C880") || !strings.Contains(md, "| Circuit |") {
		t.Error("markdown rendering broken")
	}
}

func TestTable2Small(t *testing.T) {
	r := NewRunner(smallCfg())
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.ActualMax <= 0 {
		t.Error("actual max")
	}
	// SRS can only underestimate.
	for i, e := range row.SRSLargestErr {
		if e > 0 {
			t.Errorf("SRS budget %d overshot: %v", SRSBudgets[i], e)
		}
	}
	// SRS quality improves (or at least does not degrade) with budget.
	if math.Abs(row.SRSLargestErr[2]) > math.Abs(row.SRSLargestErr[0])+0.02 {
		t.Errorf("SRS-20k worse than SRS-2500: %v vs %v", row.SRSLargestErr[2], row.SRSLargestErr[0])
	}
	md := MarkdownQuality(rows)
	if !strings.Contains(md, "Table 2") {
		t.Error("markdown")
	}
}

func TestTables34Small(t *testing.T) {
	cfg := smallCfg()
	cfg.ConstrainedPopSize = 2000
	r := NewRunner(cfg)
	rows3, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	rows4, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if rows3[0].ActualMax <= 0 || rows4[0].ActualMax <= 0 {
		t.Error("actual max missing")
	}
	// High-activity population dissipates more than low-activity.
	if rows3[0].ActualMax <= rows4[0].ActualMax {
		t.Errorf("activity 0.7 max %v ≤ activity 0.3 max %v",
			rows3[0].ActualMax, rows4[0].ActualMax)
	}
}

func TestFigure1Small(t *testing.T) {
	r := NewRunner(smallCfg())
	series, err := r.Figure1("C880", []int{2, 30}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.X) != 21 || len(s.Empirical) != 21 || len(s.Fitted) != 21 {
			t.Errorf("n=%d: grid sizes %d/%d/%d", s.N, len(s.X), len(s.Empirical), len(s.Fitted))
		}
		// Empirical CDF must be monotone from ~0 to 1.
		for i := 1; i < len(s.Empirical); i++ {
			if s.Empirical[i] < s.Empirical[i-1] {
				t.Errorf("n=%d: empirical CDF not monotone", s.N)
				break
			}
		}
	}
	// Paper's observation: the Weibull approximation is better at n=30
	// than at n=2.
	if series[0].FitOK && series[1].FitOK && series[1].KS > series[0].KS+0.05 {
		t.Errorf("KS(n=30)=%v much worse than KS(n=2)=%v", series[1].KS, series[0].KS)
	}
	md := MarkdownFigure1("C880", series)
	if !strings.Contains(md, "Figure 1") {
		t.Error("markdown")
	}
}

func TestFigure2Small(t *testing.T) {
	r := NewRunner(smallCfg())
	series, err := r.Figure2("C880", []int{10, 30}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Estimates) != 40 {
			t.Errorf("m=%d: %d estimates", s.M, len(s.Estimates))
		}
		if s.Normal.Sigma <= 0 {
			t.Errorf("m=%d: sigma %v", s.M, s.Normal.Sigma)
		}
	}
	// Theorem 3: variance shrinks as m grows.
	if series[1].Normal.Sigma > series[0].Normal.Sigma*1.2 {
		t.Errorf("σ(m=30)=%v not smaller than σ(m=10)=%v",
			series[1].Normal.Sigma, series[0].Normal.Sigma)
	}
	md := MarkdownFigure2("C880", series)
	if !strings.Contains(md, "Figure 2") {
		t.Error("markdown")
	}
}

func TestAblations(t *testing.T) {
	r := NewRunner(smallCfg())
	rows, err := r.AblationSampleSize("C880", []int{10, 30}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].AvgUnits <= 0 {
		t.Errorf("sample-size ablation: %+v", rows)
	}
	rows, err = r.AblationHyperSamples("C880", []int{5, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Error("hyper-sample ablation")
	}
	rows, err = r.AblationFiniteCorrection("C880", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Error("finite-correction ablation")
	}
	// Raw μ̂ must not sit below the corrected estimate on average.
	if rows[1].MeanErr < rows[0].MeanErr-0.001 {
		t.Errorf("raw μ̂ (%v) below corrected (%v)", rows[1].MeanErr, rows[0].MeanErr)
	}
	if md := MarkdownAblation("t", rows); !strings.Contains(md, "Setting") {
		t.Error("markdown")
	}
}

func TestAblationMLEvsLSQ(t *testing.T) {
	r := NewRunner(smallCfg())
	rows, err := r.AblationMLEvsLSQ("C880", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want MLE/LSQ/PWM", len(rows))
	}
	for _, row := range rows {
		if row.Failures < 0 || row.Failures > 20 {
			t.Errorf("%s: %d failures", row.Method, row.Failures)
		}
	}
	md := MarkdownFitCompare(rows)
	if !strings.Contains(md, "MLE") || !strings.Contains(md, "PWM") {
		t.Error("markdown")
	}
}

func TestBaselines(t *testing.T) {
	r := NewRunner(smallCfg())
	rows, err := r.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	row := rows[0]
	if row.ActualMax <= 0 || row.EVTUnits < 600 {
		t.Errorf("row: %+v", row)
	}
	// SRS with the same budget cannot exceed the population max.
	if row.SRSBest > row.ActualMax {
		t.Error("SRS above population max")
	}
	// Searches report positive cost and achievable (positive) powers.
	if row.GreedyBest <= 0 || row.GeneticBest <= 0 || row.GreedyUnits <= 0 || row.GeneticUnits <= 0 {
		t.Errorf("search results degenerate: %+v", row)
	}
	if md := MarkdownBaselines(rows); !strings.Contains(md, "C880") {
		t.Error("markdown")
	}
}

func TestRunAllAndJSON(t *testing.T) {
	cfg := smallCfg()
	cfg.PopSize = 1500
	cfg.Runs = 2
	r := NewRunner(cfg)
	all, err := r.RunAll("C880")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Table1) != 1 || len(all.Table2) != 1 || len(all.Baselines) != 1 {
		t.Fatalf("missing sections: %+v", all)
	}
	if len(all.Figure1) == 0 || len(all.Figure2) == 0 {
		t.Fatal("missing figures")
	}
	var buf bytes.Buffer
	if err := all.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back AllResults
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.PopSize != cfg.PopSize || back.Table1[0].Circuit != "C880" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestAblationDelayModel(t *testing.T) {
	cfg := smallCfg()
	cfg.PopSize = 1500
	r := NewRunner(cfg)
	rows, err := r.AblationDelayModel("C880", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	names := map[string]bool{}
	for _, row := range rows {
		names[row.Setting] = true
	}
	for _, want := range []string{"delay=zero", "delay=unit", "delay=fanout", "delay=table"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	// The runner's delay model must be restored.
	if r.cfg.DelayModel != "fanout" {
		t.Error("delay model not restored")
	}
}
