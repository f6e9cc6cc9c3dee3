//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [1024 / 64]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinThread pins thread tid (0 for the calling one) to cpu.
func pinThread(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return errno
	}
	return nil
}

// pinSelf pins every thread of this process to cpu, and with it every
// process this one starts later.
func pinSelf(cpu int) error {
	return eachThread(func(tid int) error { return pinThread(tid, cpu) })
}

// idleSelf moves every thread of this process to the SCHED_IDLE class:
// they run only while nothing else on their CPU wants to, and a waking
// thread of any other class preempts them at once. Any process may lower
// its own class this way.
func idleSelf() error {
	const schedIdle = 5
	var param struct{ priority int32 }
	return eachThread(func(tid int) error {
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			return errno
		}
		return nil
	})
}

// eachThread applies f to every thread of this process. A thread inherits
// its maker's affinity and scheduling class, so threads made later share
// what f set; the second pass catches a thread made during the first.
func eachThread(f func(tid int) error) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := f(tid); err != nil {
				return err
			}
		}
	}
	return nil
}

// threadCPU is the CPU time the calling thread has used. Unlike wall
// time it leaves out the time the thread waited for its CPU.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
