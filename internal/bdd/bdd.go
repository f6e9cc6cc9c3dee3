// Package bdd implements reduced ordered binary decision diagrams and an
// exact maximum-toggle engine built on them. It provides the classic
// Boolean-function-manipulation route to maximum power (Devadas, Keutzer
// & White [1]): compile every gate of a (small) circuit to a BDD over the
// two cycle vectors, form per-gate toggle functions f(v1) ⊕ f(v2), and
// maximize the weighted toggle sum exactly by branch-and-bound over the
// variable order. The result is the exact zero-delay maximum power — an
// oracle used to validate the statistical estimator on circuits small
// enough to afford it.
package bdd

import (
	"fmt"
	"math"
)

// Ref is a node reference. Constants are Zero and One.
type Ref int32

// Constant leaves.
const (
	Zero Ref = 0
	One  Ref = 1
)

type node struct {
	level  int32 // variable index; constants use math.MaxInt32
	lo, hi Ref
}

const constLevel = math.MaxInt32

type triple struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns the node pool, the unique table and operation caches for
// one variable order.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[triple]Ref
	iteMemo map[iteKey]Ref
}

// New creates a manager for functions over numVars variables
// (levels 0 … numVars−1; level 0 is the topmost decision).
func New(numVars int) *Manager {
	if numVars <= 0 {
		panic("bdd: need at least one variable")
	}
	m := &Manager{
		numVars: numVars,
		nodes:   make([]node, 2, 1024),
		unique:  make(map[triple]Ref),
		iteMemo: make(map[iteKey]Ref),
	}
	m.nodes[Zero] = node{level: constLevel}
	m.nodes[One] = node{level: constLevel}
	return m
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := triple{level, lo, hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[key] = r
	return r
}

// Var returns the function of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), Zero, One)
}

// level returns a node's level.
func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else(f, g, h) — the universal connective.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == One:
		return g
	case f == Zero:
		return h
	case g == h:
		return g
	case g == One && h == Zero:
		return f
	}
	key := iteKey{f, g, h}
	if r, ok := m.iteMemo[key]; ok {
		return r
	}
	// Split on the top variable among f, g, h.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteMemo[key] = r
	return r
}

// cofactors returns (f|var=0, f|var=1) for the variable at the given
// level, assuming level ≤ level(f).
func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, Zero, One) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, Zero) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, One, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Eval evaluates f under a full variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	if len(assignment) != m.numVars {
		panic("bdd: assignment width mismatch")
	}
	for f != Zero && f != One {
		n := m.nodes[f]
		if assignment[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == One
}

// Restrict fixes the variable at the given index to val.
func (m *Manager) Restrict(f Ref, variable int, val bool) Ref {
	if variable < 0 || variable >= m.numVars {
		panic("bdd: restrict variable out of range")
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if n.level > int32(variable) { // includes constants
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r Ref
		if n.level == int32(variable) {
			if val {
				r = n.hi
			} else {
				r = n.lo
			}
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}
