package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the smoke test run this test binary as the maxbench
// command itself (and its child processes) without building it twice.
func TestMain(m *testing.M) {
	if os.Getenv("MAXBENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONListsTheCodesMetrics(t *testing.T) {
	spec := readBenchmarkSpec(t)
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %q, code %q", i, m.Name, c.code[i])
			}
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// each in a child process, and checks that every metric of
// BENCHMARK.json is printed for every workload with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds maxpowerd and runs all workloads")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "maxpowerd"), "repro/cmd/maxpowerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build maxpowerd: %v\n%s", err, out)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(exe, "-smoke", "-seed", "3", "-bin", bin, "-work", t.TempDir(), "-json", report)
	cmd.Env = append(os.Environ(), "MAXBENCH_AS_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("maxbench -smoke: %v\n%s", err, out)
	}
	spec := readBenchmarkSpec(t)
	for _, w := range workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w+" "+m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `( n=\d+)?$`)
			if !line.Match(out) {
				t.Errorf("%s: no %q line with unit %q", w, m.Name, m.Unit)
			}
		}
	}
	var reps []runReport
	b, err := os.ReadFile(report)
	if err == nil {
		err = json.Unmarshal(b, &reps)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2*len(workloads) {
		t.Fatalf("%d run reports, want %d", len(reps), 2*len(workloads))
	}
	for _, r := range reps {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d failed: %v", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
	}
}
