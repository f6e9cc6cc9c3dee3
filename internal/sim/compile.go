package sim

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// stripeWords is the width of every compiled stripe: 8 lane words = 512
// vector pairs. Per-gate dispatch and delay lookups amortize across the
// stripe, a gate's words fill one cache line, and per-call scratch arrays
// live on the stack.
const stripeWords = 8

// Fused opcodes: gate kind specialized on fan-in arity, so the dominant
// two-input gates evaluate without a loop. One-input gates are folded into
// the two-input opcodes through a duplicated fab pair — Buf is And2(a, a),
// Not is Nand2(a, a) — so the fast path needs only the six boolean ops.
const (
	fopInput uint8 = iota
	fopAnd2
	fopNand2
	fopOr2
	fopNor2
	fopXor2
	fopXnor2
	fopAndN
	fopNandN
	fopOrN
	fopNorN
	fopXorN
	fopXnorN
)

// CompileOptions is the options parameter of CompileModel and
// FingerprintModel. It has no fields: every program compiles at the one
// stripe width, and whether it is the zero-delay kernel follows from its
// delays.
//
// Deprecated: CompileOptions has no effect. It stays so that callers
// passing CompileOptions{} compile, until they move off it (ROADMAP
// item 9).
type CompileOptions struct{}

// Program is a netlist compiled into a flat straight-line simulation
// kernel for one (circuit, delay assignment): levelized gate order,
// fan-in indirection resolved to flat slot offsets, gate kinds fused into
// arity-specialized opcodes, and GCD-normalized delays baked per
// instruction. Slot s is gate s: the netlist is topologically sorted, so
// gate order already is a levelized program. A Program is immutable
// after Compile and safe to share across any number of goroutines; all
// mutable run state lives in Speculative executors (one per goroutine,
// NewSpeculative).
type Program struct {
	c         *netlist.Circuit
	zeroDelay bool // settle-only kernel
	n         int  // slots, one per gate

	// Straight-line instruction stream, one instruction per slot. fab
	// packs the two fan-in slot ids (low 32 bits = first fan-in, high 32
	// = second, duplicated for one-input gates); the executor
	// pre-multiplies them by the run's active word count once per stripe
	// shape, so evaluation indexes the value array with no slot
	// indirection. faninIdx entries are slot ids too (the ≥3-input
	// fallback).
	fop      []uint8
	fab      []uint64
	faninOff []int32
	faninIdx []int32

	// Timed-kernel table (nil for zero-delay programs): per-slot
	// GCD-normalized delays.
	delays []int64

	// Static hazard analysis (timed programs only): arrT[s] ≥ 0 means
	// slot s is hazard-free by construction — every fan-in settles its
	// (at most one) output transition at the same statically known
	// normalized time, so s itself emits at most one transition, at
	// arrT[s], in every lane of every stripe. −1 marks slots whose
	// fan-in arrival times are unknown or unequal: glitches and inertial
	// pulse swallowing are possible there, and only there. The
	// speculative engine patches hazard-free slots straight from the
	// settle diff and runs the waveform merge only over the hazard cone.
	arrT    []int64
	hazFree int // slots with arrT ≥ 0

	fp        uint64 // structural fingerprint, see Fingerprint
	compileNS int64
}

// CompileModel is Compile with the delay assignment drawn from a model
// (nil = delay.FanoutLoaded{}, like New).
func CompileModel(c *netlist.Circuit, m delay.Model, _ CompileOptions) *Program {
	return Compile(c, assignDelays(c, m))
}

// Compile builds the kernel program for the circuit under the explicit
// per-gate delay assignment in ps (one entry per gate, Input entries
// ignored — use Simulator.DelaysPS to guarantee oracle-exact delays). An
// assignment with no positive logic-gate delay compiles the zero-delay
// settle kernel, the rule the scalar Simulator follows; a negative
// logic-gate delay panics, as it does in New. The pipeline is opcode
// fusion (kind × arity) with fan-ins resolved to slot ids, then, for a
// timed program, delay baking (progress-guarded, GCD-normalized) and the
// static hazard frontier.
func Compile(c *netlist.Circuit, delaysPS []int64) *Program {
	start := time.Now()
	n := c.NumGates()
	if len(delaysPS) != n {
		panic(fmt.Sprintf("sim: %d delays for %d gates", len(delaysPS), n))
	}
	zero := zeroDelay(c, delaysPS)

	// Timed table: progress-guarded delays (zero logic-gate delays
	// become 1 ps, the scalar timed path's guard), then GCD
	// normalization. Event ordering, inertial filtering and toggle counts
	// are invariant under uniform time scaling, so simulating in units of
	// the GCD changes no outcome.
	var delays []int64
	if !zero {
		var gcdPS int64
		delays = make([]int64, n)
		for g := range c.Gates {
			if c.Gates[g].Kind == netlist.Input {
				continue
			}
			delays[g] = max(delaysPS[g], 1)
			gcdPS = gcd64(gcdPS, delays[g])
		}
		for g := range delays {
			delays[g] /= gcdPS
		}
	}

	// Instruction stream: fused opcodes and fan-in slot ids.
	arity := func(nf int, two, many uint8) uint8 {
		if nf <= 2 {
			return two
		}
		return many
	}
	fop := make([]uint8, n)
	fab := make([]uint64, n)
	faninOff := make([]int32, n+1)
	faninIdx := make([]int32, 0, n)
	for s := range c.Gates {
		fi := c.Gates[s].Fanin
		nf := len(fi)
		switch c.Gates[s].Kind {
		case netlist.Input:
			fop[s] = fopInput
		case netlist.Buf:
			fop[s] = fopAnd2
		case netlist.Not:
			fop[s] = fopNand2
		case netlist.And:
			fop[s] = arity(nf, fopAnd2, fopAndN)
		case netlist.Nand:
			fop[s] = arity(nf, fopNand2, fopNandN)
		case netlist.Or:
			fop[s] = arity(nf, fopOr2, fopOrN)
		case netlist.Nor:
			fop[s] = arity(nf, fopNor2, fopNorN)
		case netlist.Xor:
			if nf == 1 {
				fop[s] = fopAnd2
			} else {
				fop[s] = arity(nf, fopXor2, fopXorN)
			}
		case netlist.Xnor:
			if nf == 1 {
				fop[s] = fopNand2
			} else {
				fop[s] = arity(nf, fopXnor2, fopXnorN)
			}
		default:
			panic(fmt.Sprintf("sim: unknown gate kind %v", c.Gates[s].Kind))
		}
		switch {
		case nf >= 2:
			fab[s] = uint64(fi[0]) | uint64(fi[1])<<32
		case nf == 1:
			fab[s] = uint64(fi[0]) | uint64(fi[0])<<32
		}
		faninOff[s] = int32(len(faninIdx))
		for _, f := range fi {
			faninIdx = append(faninIdx, int32(f))
		}
	}
	faninOff[n] = int32(len(faninIdx))

	// Static hazard frontier: propagate single-transition arrival times
	// through the levelized slot order. An input toggles at most once, at
	// t = 0; a gate whose fan-ins all carry known, equal arrival times
	// toggles at most once, at that time plus its own delay. Everything
	// else is conservatively hazardous. Delays are lane-invariant, so
	// this classification holds for every lane of every stripe.
	var (
		arrT    []int64
		hazFree int
	)
	if !zero {
		arrT = make([]int64, n)
		for s := range arrT {
			if fop[s] == fopInput {
				hazFree++
				continue // arrT[s] = 0: inputs flip exactly at t = 0
			}
			lo, hi := faninOff[s], faninOff[s+1]
			t := arrT[faninIdx[lo]]
			for _, f := range faninIdx[lo+1 : hi] {
				if arrT[f] != t {
					t = -1
					break
				}
			}
			if t < 0 {
				arrT[s] = -1
				continue
			}
			arrT[s] = t + delays[s]
			hazFree++
		}
	}

	p := &Program{
		c:         c,
		zeroDelay: zero,
		n:         n,
		fop:       fop,
		fab:       fab,
		faninOff:  faninOff,
		faninIdx:  faninIdx,
		delays:    delays,
		arrT:      arrT,
		hazFree:   hazFree,
		fp:        Fingerprint(c, delaysPS),
	}
	p.compileNS = time.Since(start).Nanoseconds()
	return p
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// FingerprintModel is the checksum CompileModel would stamp on its
// program, so cache consumers can key-check without compiling.
func FingerprintModel(c *netlist.Circuit, m delay.Model, _ CompileOptions) uint64 {
	return Fingerprint(c, assignDelays(c, m))
}

// Fingerprint is a structural checksum of everything a compiled program
// depends on: gate kinds and fan-ins, the delay assignment, and whether
// it runs the zero-delay kernel. Cache consumers compare it on hit, so a
// key collision (two circuits cached under one name) degrades to a
// recompile instead of simulating the wrong netlist.
func Fingerprint(c *netlist.Circuit, delaysPS []int64) uint64 {
	zero := zeroDelay(c, delaysPS)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(c.NumGates()))
	put(uint64(c.NumInputs()))
	for i := range c.Gates {
		put(uint64(c.Gates[i].Kind))
		for _, f := range c.Gates[i].Fanin {
			put(uint64(f))
		}
		put(^uint64(0)) // gate separator
	}
	if zero {
		put(1)
	} else {
		for _, d := range delaysPS {
			put(uint64(d))
		}
		put(0)
	}
	return h.Sum64()
}

// StripeWords returns the stripe width in 64-lane words.
func (p *Program) StripeWords() int { return stripeWords }

// StripeLanes returns the lane capacity of one stripe (64 · StripeWords).
func (p *Program) StripeLanes() int { return stripeWords * 64 }

// ZeroDelay reports whether this is the settle-only glitch-free kernel.
func (p *Program) ZeroDelay() bool { return p.zeroDelay }

// HazardFree returns how many slots the static hazard analysis proved
// single-transition (see Program.arrT) and the slot total — the
// compile-time share of the circuit the speculative engine patches
// without any event-merge work. Zero-delay programs report (0, slots):
// the settle kernel is glitch-free everywhere by construction.
func (p *Program) HazardFree() (free, total int) { return p.hazFree, p.n }

// Fingerprint returns the program's structural checksum.
func (p *Program) Fingerprint() uint64 { return p.fp }

// ProgramCacheStats is a point-in-time counter snapshot of a ProgramCache.
type ProgramCacheStats struct {
	// Hits and Misses count Get outcomes (a fingerprint conflict counts
	// as a miss: the entry is recompiled and replaced).
	Hits, Misses int64
	// CompileNS is the cumulative wall time spent compiling on misses.
	CompileNS int64
}

// ProgramCache is a small LRU of compiled programs keyed by caller-chosen
// strings (the service keys on circuit identity + delay model). It is
// safe for concurrent use; the lock is held across a miss's compile, so
// concurrent requests for one key share a single compilation and receive
// the same *Program. Cached programs are immutable — callers run them
// through per-goroutine Speculative executors.
//
// Each entry can also hold idle prepared state built on its program (see
// Park and Take): whole executors a caller parks between runs instead of
// rebuilding them per run. Idle values belong to their entry, so LRU
// eviction, a fingerprint replacement, or dropping the cache frees them.
type ProgramCache struct {
	// OnEvent, when non-nil, observes every Get outcome (compileNS is 0
	// on hits). Set it before first use; the service mirrors the counters
	// onto process-wide expvars through it.
	OnEvent func(hit bool, compileNS int64)

	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *programEntry
	items map[string]*list.Element
	stats ProgramCacheStats
}

type programEntry struct {
	key  string
	prog *Program
	idle []idleValue // parked prepared state, oldest first
}

// idleValue is one parked value and the tag it was parked under.
type idleValue struct {
	tag, v any
}

// maxIdlePerProgram bounds the idle values one entry keeps, so parked
// state stays proportional to the cache capacity even when callers park
// under many tags or from many concurrent runs.
const maxIdlePerProgram = 8

// NewProgramCache builds a cache bounded to capacity entries (≤0 = 1).
func NewProgramCache(capacity int) *ProgramCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &ProgramCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the program cached under key, compiling via build on a
// miss. fp guards against key collisions: a hit whose program fingerprint
// differs is discarded and rebuilt (counted as a miss), so a wrong key
// can cost a recompile but never a wrong simulation.
func (pc *ProgramCache) Get(key string, fp uint64, build func() *Program) *Program {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.items[key]; ok {
		e := el.Value.(*programEntry)
		if e.prog.fp == fp {
			pc.order.MoveToFront(el)
			pc.stats.Hits++
			if pc.OnEvent != nil {
				pc.OnEvent(true, 0)
			}
			return e.prog
		}
		// Fingerprint conflict: same key, different structure. Replace.
		pc.order.Remove(el)
		delete(pc.items, key)
	}
	prog := build()
	pc.stats.Misses++
	pc.stats.CompileNS += prog.compileNS
	if pc.OnEvent != nil {
		pc.OnEvent(false, prog.compileNS)
	}
	pc.items[key] = pc.order.PushFront(&programEntry{key: key, prog: prog})
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Back()
		pc.order.Remove(oldest)
		delete(pc.items, oldest.Value.(*programEntry).key)
	}
	return prog
}

// Take removes and returns a value parked under (key, tag), or nil when
// none is idle. Each parked value goes to one caller only, so concurrent
// callers never share one. A successful Take serves the entry's program
// without a compile or fingerprint walk, so it counts as a hit and
// refreshes the entry's recency; an empty one counts as nothing (the
// caller's Get will). The tag must be comparable and should identify
// everything the value was built from beyond the program itself.
func (pc *ProgramCache) Take(key string, tag any) any {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.items[key]
	if !ok {
		return nil
	}
	e := el.Value.(*programEntry)
	for i := len(e.idle) - 1; i >= 0; i-- {
		if e.idle[i].tag != tag {
			continue
		}
		v := e.idle[i].v
		last := len(e.idle) - 1
		copy(e.idle[i:], e.idle[i+1:])
		e.idle[last] = idleValue{} // drop the backing array's reference
		e.idle = e.idle[:last]
		pc.order.MoveToFront(el)
		pc.stats.Hits++
		if pc.OnEvent != nil {
			pc.OnEvent(true, 0)
		}
		return v
	}
	return nil
}

// Park stores v idle under (key, tag) for a later Take. The value lives
// and dies with key's entry: when key is not cached (never compiled, or
// evicted while v was in use) v is dropped, and a full entry drops its
// oldest idle value to make room.
func (pc *ProgramCache) Park(key string, tag, v any) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.items[key]
	if !ok {
		return
	}
	e := el.Value.(*programEntry)
	if len(e.idle) == maxIdlePerProgram {
		copy(e.idle, e.idle[1:])
		e.idle = e.idle[:len(e.idle)-1]
	}
	e.idle = append(e.idle, idleValue{tag: tag, v: v})
}

// Len reports the current entry count.
func (pc *ProgramCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.order.Len()
}

// Stats returns cumulative counters.
func (pc *ProgramCache) Stats() ProgramCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}
