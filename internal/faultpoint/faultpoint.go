// Package faultpoint provides named, test-armable fault injection points
// for chaos testing. Production code marks its failure-prone seams with
// Hit("pkg/seam"); a disarmed point costs one atomic load and returns
// nil, so the instrumentation is free in normal operation. Tests arm a
// point with a function that returns an error (a simulated failure) or
// panics (a simulated crash-in-flight), optionally limited to the first
// n hits, and assert the system degrades the way its robustness story
// promises.
//
// Point names are plain strings, prefixed by the package that hosts the
// seam ("service/journal-write", "fleet/shard-dispatch"), so a test can
// target a layer without importing its internals.
package faultpoint

import (
	"sync"
	"sync/atomic"
)

// armed counts currently armed points; the Hit fast path is a single
// atomic load when nothing is armed.
var armed atomic.Int32

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	fn        func() error
	remaining int // fires left; < 0 = unlimited
	hits      int // times fired
}

// Arm installs fn at the named point. The fault fires on the first n
// Hit calls (n <= 0 = every hit) and then disarms itself; fn may return
// an error or panic. Re-arming a name replaces the previous fault.
func Arm(name string, n int, fn func() error) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	if n <= 0 {
		n = -1
	}
	points[name] = &point{fn: fn, remaining: n}
}

// Disarm removes the named point; no-op when not armed.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every point. Tests call it in cleanup so armed faults
// never leak across test cases.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
}

// Hit triggers the named point: it returns nil when the point is
// disarmed (the overwhelmingly common case, one atomic load) and
// otherwise invokes the armed function, which may return a simulated
// error or panic. The armed function runs outside the package lock, so
// it may call back into faultpoint.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(points, name)
			armed.Add(-1)
		}
	}
	fn := p.fn
	mu.Unlock()
	return fn()
}

// Hits reports how many times the named point has fired since it was
// last armed, or 0 once it has disarmed itself (a disarmed point keeps
// no state; capture counts inside the armed function when a test needs
// them after self-disarm).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}
