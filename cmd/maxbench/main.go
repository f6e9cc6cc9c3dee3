// Command maxbench is the repository's benchmark: four workloads that
// exercise the estimation library and the maxpowerd service end to end,
// and a traced pass that splits their time by layer. README.md defines
// every metric, the workloads and how to compare two commits.
//
// Usage:
//
//	maxbench -workload stream-timed -seed 1 -seconds 20 -trace 0
//	maxbench -seed 1             # every workload, untraced and traced
//	maxbench -seed 1 -repeat 3   # and the median and quartiles per metric
//	maxbench -smoke              # every workload at a tiny scale
//
// A single-workload run prints "workload metric value unit" lines (with
// n=<samples> after a percentile) and ends with one JSON line
// {"correct","attempted","failed","metrics"}: the end-to-end metrics of
// BENCHMARK.json under -trace 0, its per-layer metrics under -trace 1.
// It exits 1 when a correctness check fails and 2 when it cannot run.
// Without -workload, maxbench runs each workload in a child process of
// its own and exits non-zero if any child did.
//
// The service workload starts the maxpowerd binary found in -bin; run.sh
// builds both binaries there.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// workloads are the benchmark's workloads in run order; README.md says
// why each exists.
var workloads = []string{"stream-timed", "stream-zero-wide", "paper-tables", "service-pop"}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int // 0 untraced, 1 traced; -1 runs both (all-workloads mode)
	smoke    bool
	repeat   int
	jsonOut  string
	spansDir string
	binDir   string
	workDir  string
}

func parseFlags(args []string) (options, error) {
	var opt options
	fs := flag.NewFlagSet("maxbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "run one workload ("+strings.Join(workloads, ", ")+"); empty runs all, each in a child process")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every input of the run derives from")
	fs.IntVar(&opt.seconds, "seconds", 20, "length of each workload's timed phase")
	fs.IntVar(&opt.trace, "trace", -1, "0 = untraced run with end-to-end metrics, 1 = traced run with per-layer metrics; unset runs both passes")
	fs.BoolVar(&opt.smoke, "smoke", false, "run at a tiny scale (5 estimates per library workload, 1 s of service load)")
	fs.IntVar(&opt.repeat, "repeat", 1, "without -workload: run everything this many times, with seeds seed, seed+1, …, and print the median and quartiles")
	fs.StringVar(&opt.jsonOut, "json", "", "write the full report as JSON to this file")
	fs.StringVar(&opt.spansDir, "spans", "", "write the traced pass's spans as JSON lines into this directory")
	fs.StringVar(&opt.binDir, "bin", "", "directory holding the maxpowerd binary (default: this binary's directory)")
	fs.StringVar(&opt.workDir, "work", "", "scratch directory for daemon data (default: the system temp directory)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("-seconds must be at least 1, got %d", opt.seconds)
	}
	if opt.trace < -1 || opt.trace > 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", opt.trace)
	}
	if opt.repeat < 1 {
		return opt, fmt.Errorf("-repeat must be at least 1, got %d", opt.repeat)
	}
	if opt.workload != "" && opt.repeat != 1 {
		return opt, errors.New("-repeat needs all workloads (no -workload)")
	}
	if opt.binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			return opt, err
		}
		opt.binDir = filepath.Dir(exe)
	}
	if opt.workDir == "" {
		opt.workDir = os.TempDir()
	}
	return opt, nil
}

func main() {
	if cpu := os.Getenv(spinEnv); cpu != "" {
		os.Exit(spin(cpu))
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		os.Exit(2)
	}
	if opt.workload == "" {
		os.Exit(runAll(opt))
	}
	os.Exit(runOne(opt))
}

// runOne runs a single workload in this process.
func runOne(opt options) int {
	if opt.trace == -1 {
		opt.trace = 0
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	var (
		rep *runReport
		err error
	)
	switch opt.workload {
	case "stream-timed":
		rep, err = runLibrary(opt, streamDef(opt.workload, "C3540", "fanout"))
	case "stream-zero-wide":
		rep, err = runLibrary(opt, streamDef(opt.workload, "C7552", "zero"))
	case "paper-tables":
		size := 160000 // the paper's |V|
		if opt.smoke {
			size = 20000
		}
		rep, err = runLibrary(opt, tablesDef(size))
	case "service-pop":
		rep, err = runService(opt)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "maxbench: %s: %v\n", opt.workload, err)
		return 2
	}
	rep.print(os.Stdout)
	if opt.jsonOut != "" {
		if err := rep.writeJSON(opt.jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "maxbench:", err)
			return 2
		}
	}
	line, err := json.Marshal(rep.contract())
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload (both passes unless -trace is given), each
// in a fresh child process, -repeat times, and writes the merged report.
func runAll(opt options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(opt.workDir, "reports-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	passes := []int{0, 1}
	if opt.trace != -1 {
		passes = []int{opt.trace}
	}
	status := 0
	var reports []*runReport
	for r := 0; r < opt.repeat; r++ {
		seed := opt.seed + uint64(r)
		for _, w := range workloads {
			for _, pass := range passes {
				out := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d.json", w, seed, pass))
				args := []string{"-workload", w, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(opt.seconds), "-trace", strconv.Itoa(pass),
					"-bin", opt.binDir, "-work", opt.workDir, "-json", out}
				if opt.smoke {
					args = append(args, "-smoke")
				}
				if opt.spansDir != "" {
					args = append(args, "-spans", opt.spansDir)
				}
				code := runChild(exe, args)
				if code != 0 {
					fmt.Fprintf(os.Stderr, "maxbench: %s (seed %d, trace %d) exited %d\n", w, seed, pass, code)
					status = 1
				}
				if rep, err := readReport(out); err == nil {
					reports = append(reports, rep)
				} else if code == 0 {
					fmt.Fprintln(os.Stderr, "maxbench:", err)
					status = 1
				}
			}
		}
	}
	if opt.repeat > 1 {
		printSummary(os.Stdout, reports)
	}
	if opt.jsonOut != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(opt.jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "maxbench:", err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a child process, passing its metric
// lines through and dropping its final JSON line, which the report file
// carries in full.
func runChild(exe string, args []string) int {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	io.Copy(io.Discard, stdout) // drain whatever a scan error left, so Wait can return
	if err := cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		return 2
	}
	return 0
}

func readReport(path string) (*runReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep runReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// printSummary prints, per (workload, pass, metric), the median and the
// quartiles over the repeated runs, with the machine they ran on.
func printSummary(w io.Writer, reports []*runReport) {
	type key struct {
		workload string
		trace    int
		name     string
	}
	var (
		keys   []key
		values = map[key][]float64{}
		units  = map[key]string{}
		m      machine
	)
	for _, rep := range reports {
		m = rep.Machine
		for _, mt := range rep.Metrics {
			if mt.Absent {
				continue
			}
			k := key{rep.Workload, rep.Trace, mt.Name}
			if _, ok := values[k]; !ok {
				keys = append(keys, k)
			}
			values[k] = append(values[k], mt.Value)
			units[k] = mt.Unit
		}
	}
	sort.SliceStable(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return slices.Index(workloads, keys[a].workload) < slices.Index(workloads, keys[b].workload)
		}
		return keys[a].trace < keys[b].trace
	})
	fmt.Fprintf(w, "# summary over %d runs: nproc=%d cpu=%q go=%s\n", len(reports), m.NProc, m.CPU, m.Go)
	fmt.Fprintln(w, "# workload trace metric median q1 q3 unit runs")
	for _, k := range keys {
		vs := values[k]
		q1, q3, ok := quartiles(vs)
		if !ok {
			q1, q3 = vs[0], vs[0]
		}
		fmt.Fprintf(w, "%s %d %s %.6g %.6g %.6g %s %d\n", k.workload, k.trace, k.name, median(vs), q1, q3, units[k], len(vs))
	}
}
