//go:build !linux

package main

import (
	"errors"
	"time"
)

var errNoAffinity = errors.New("CPU affinity and scheduling classes need Linux")

func allowedCPUs() ([]int, error)  { return nil, errNoAffinity }
func pinThread(tid, cpu int) error { return errNoAffinity }
func pinSelf(cpu int) error        { return errNoAffinity }
func idleSelf() error              { return errNoAffinity }
func threadCPU() time.Duration     { return 0 }
