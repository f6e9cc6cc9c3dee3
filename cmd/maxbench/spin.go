package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// A virtual CPU that goes idle halts, and the host must schedule it again
// before it can run the next piece of work. On a busy host that wait is
// the host's, not the program's, and a service whose jobs take a
// millisecond sleeps and wakes a few hundred times a second: in such
// spells its CPUs lost 10-40% of their time to the host, and its p95
// latency rose several-fold. The service workload therefore keeps its CPU
// busy with a spinner in the SCHED_IDLE class, which any other thread on
// the CPU preempts at once. README.md has the measurements.

// spinEnv, when set, makes this binary the spinner: it spins on the CPU
// the variable names instead of running the benchmark.
const spinEnv = "MAXBENCH_SPIN_CPU"

// spinReady is the line the spinner prints once it is pinned and idle.
const spinReady = "spinning"

// startSpinner starts a copy of this binary that spins on cpu in the
// SCHED_IDLE class, and returns once it spins. stop kills it and waits
// for it to end; it may be called again.
func startSpinner(cpu int) (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(cpu))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stopped := false
	stop = func() {
		if !stopped {
			stopped = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil || line != spinReady+"\n" {
		stop()
		return nil, fmt.Errorf("the spinner did not start (%q, %v)", line, err)
	}
	return stop, nil
}

// spinSink keeps the spin loop from being optimized away.
var spinSink uint64

// spin is the spinner's whole life: pin to cpu, drop to SCHED_IDLE, and
// spin until killed or until the process that started it is gone.
func spin(cpu string) int {
	n, err := strconv.Atoi(cpu)
	if err == nil {
		err = pinSelf(n)
	}
	if err == nil {
		err = idleSelf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxbench spinner:", err)
		return 2
	}
	fmt.Println(spinReady)
	for parent := os.Getppid(); os.Getppid() == parent; {
		for i := 0; i < 1<<20; i++ {
			spinSink++
		}
	}
	return 0
}
