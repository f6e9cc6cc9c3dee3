package main

import (
	"context"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/maxpower"
)

// TestFleetProcesses is the full-stack fleet drill: build the real
// maxpowerd binary, run two of them as workers plus one as coordinator
// (-coordinator), submit a C432 job that the coordinator shards four
// ways across the workers, and require the merged result to be
// bit-identical to a direct library run with the same shard plan.
func TestFleetProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test; skipped in -short")
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "maxpowerd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build maxpowerd: %v\n%s", err, out)
	}

	// Two worker daemons, each a plain instance serving /v1/shards.
	w1 := freeAddr(t)
	w2 := freeAddr(t)
	for _, addr := range []string{w1, w2} {
		d := launchArgs(t, bin, addr)
		defer stopDaemon(d)
	}

	// The coordinator: shard-size 6 over 24 hyper-samples → 4 shards.
	coordAddr := freeAddr(t)
	coord := launchArgs(t, bin, coordAddr,
		"-coordinator", "http://"+w1+",http://"+w2, "-shard-size", "6")
	defer stopDaemon(coord)
	base := "http://" + coordAddr

	jobBody := map[string]any{
		"circuit":    "C432",
		"population": map[string]any{"size": 2000, "seed": 5},
		"options": map[string]any{
			"seed": 13, "epsilon": 0.03, "max_hyper_samples": 24,
		},
	}
	var submitted struct {
		ID string `json:"id"`
	}
	postJSON(t, base+"/v1/jobs", jobBody, &submitted)
	if submitted.ID == "" {
		t.Fatal("no job id returned")
	}

	st := waitState(t, base, submitted.ID)
	if st.State != "done" {
		t.Fatalf("fleet job state = %s (%s), want done", st.State, st.Error)
	}

	var res struct {
		Estimate     float64 `json:"estimate_mw"`
		CILow        float64 `json:"ci_low_mw"`
		CIHigh       float64 `json:"ci_high_mw"`
		RelErr       float64 `json:"rel_err"`
		HyperSamples int     `json:"hyper_samples"`
		Units        int     `json:"units_simulated"`
		Converged    bool    `json:"converged"`
		ObservedMax  float64 `json:"observed_max_mw"`
		SigmaSq      float64 `json:"sigma_sq"`
	}
	getJSON(t, base+"/v1/jobs/"+submitted.ID+"/result", &res)

	// The same workload and shard plan straight through the library.
	c, err := maxpower.Circuit("C432")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := maxpower.BuildPopulation(c, maxpower.PopulationSpec{Size: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := maxpower.EstimateDistributed(context.Background(), maxpower.FromPopulation(pop),
		maxpower.EstimateOptions{Seed: 13, Epsilon: 0.03, MaxHyperSamples: 24},
		maxpower.DistributedOptions{ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Converged {
		t.Fatal("fixture no longer converges; recalibrate epsilon/seed")
	}
	if res.Estimate != direct.Estimate || res.CILow != direct.CILow || res.CIHigh != direct.CIHigh ||
		res.RelErr != direct.RelErr || res.HyperSamples != direct.HyperSamples ||
		res.Units != direct.Units || res.Converged != direct.Converged ||
		res.ObservedMax != direct.ObservedMax || res.SigmaSq != direct.SigmaSq {
		t.Errorf("fleet result diverged from direct sharded run:\n  fleet  %+v\n  direct estimate=%v ci=[%v,%v] relerr=%v k=%d units=%d converged=%v max=%v sigsq=%v",
			res, direct.Estimate, direct.CILow, direct.CIHigh, direct.RelErr,
			direct.HyperSamples, direct.Units, direct.Converged, direct.ObservedMax, direct.SigmaSq)
	}

	// The workers actually did the shards: worker-side executions across
	// the two daemons cover the whole plan, and the coordinator reports
	// its dispatches.
	var totalExecuted int64
	for _, addr := range []string{w1, w2} {
		var ws struct {
			ShardsExecuted int64 `json:"shards_executed"`
		}
		getJSON(t, "http://"+addr+"/v1/stats", &ws)
		totalExecuted += ws.ShardsExecuted
	}
	if totalExecuted == 0 {
		t.Error("no worker executed any shard")
	}
	var cs struct {
		Dispatched int64 `json:"fleet_shards_dispatched"`
	}
	getJSON(t, base+"/v1/stats", &cs)
	if cs.Dispatched == 0 {
		t.Error("coordinator reports zero shard dispatches")
	}
}

// launchArgs starts a daemon with extra flags and waits for /healthz.
func launchArgs(t *testing.T, bin, addr string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("daemon never became healthy")
	return nil
}

func stopDaemon(cmd *exec.Cmd) {
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}
