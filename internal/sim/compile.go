package sim

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// DefaultStripeWords is the stripe width compiled programs default to:
// 8 lane words = 512 vector pairs per calendar pass. Per-gate dispatch,
// delay lookups, and event bookkeeping amortize across the stripe, and a
// gate's words sit on one or two cache lines.
const DefaultStripeWords = 8

// maxStripeWords bounds the width so per-evaluation word masks fit a
// uint8 and per-call scratch arrays live on the stack.
const maxStripeWords = 8

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

// CompileOptions configures Compile. The zero value compiles the full
// circuit at DefaultStripeWords for the timed kernel.
type CompileOptions struct {
	// Width is the stripe width in 64-lane words (1–8; 0 = default 8).
	Width int
	// Observe, when non-nil, lists the gate ids whose toggle activity the
	// caller consumes. Gates that are not observed and feed no observed
	// gate are dead outputs: the compiler eliminates them from the
	// instruction stream, the event calendar, and the toggle accumulators
	// entirely. nil observes every gate (no elimination).
	Observe []int
	// ZeroDelay compiles the glitch-free settle kernel (two topological
	// passes, no calendar) instead of the event-driven timed kernel. It
	// must match the delay model's zero-delay contract, the rule
	// Simulator.ZeroDelay reports and CompileModel infers.
	ZeroDelay bool
}

// Program is a netlist compiled into a flat straight-line simulation
// kernel for one (circuit, delay assignment, stripe width): levelized
// gate order, fan-in indirection resolved to flat slot offsets, gate
// kinds fused into arity-specialized opcodes, GCD-normalized
// delays baked per instruction, and dead outputs eliminated against the
// Observe set. A Program is immutable after Compile and safe to share
// across any number of goroutines; all mutable run state lives in Striped
// executors (one per goroutine, NewStriped).
type Program struct {
	c         *netlist.Circuit
	w         int  // stripe width in words
	zeroDelay bool // settle-only kernel (no calendar)

	nAll  int // gates in the source circuit
	nLive int // compiled slots after dead-output elimination

	// gates maps live slot → original gate id, ascending (the netlist is
	// topologically sorted, so slot order is the levelized program order).
	// slotOf is the inverse, −1 for eliminated gates. inputSlot maps
	// primary input i → its live slot (inputs are always compiled).
	gates     []int32
	slotOf    []int32
	inputSlot []int32

	// Straight-line instruction stream, one instruction per live slot.
	// fab packs the two fan-in slot ids (low 32 bits = first fan-in,
	// high 32 = second, duplicated for one-input gates); the executor
	// pre-multiplies them by the run's active word count once per stripe
	// shape, so evaluation indexes the value array with no slot
	// indirection. faninIdx entries are slot ids too (the ≥3-input
	// fallback), as are fanoutIdx entries (they key the calendar and
	// delay lookups).
	fop       []uint8
	fab       []uint64
	faninOff  []int32
	faninIdx  []int32
	fanoutOff []int32
	fanoutIdx []int32

	// Timed-kernel tables (nil/zero for ZeroDelay programs): per-slot
	// GCD-normalized delays and the calendar geometry. ringW is the exact
	// horizon maxNorm+1 (not a power of two — the executor wraps with a
	// compare, keeping the calendar as small as the delays allow).
	delays []int64
	gcdPS  int64
	ringW  int
	occW   int

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
// (nil = delay.FanoutLoaded{}, like New). ZeroDelay is
// inferred from the assignment, matching Simulator's dispatch rule.
func CompileModel(c *netlist.Circuit, m delay.Model, opt CompileOptions) *Program {
	if m == nil {
		m = delay.FanoutLoaded{}
	}
	d := m.Assign(c)
	if len(d) != c.NumGates() {
		panic(fmt.Sprintf("sim: delay model %s returned %d delays for %d gates", m.Name(), len(d), c.NumGates()))
	}
	opt.ZeroDelay = true
	for i := range c.Gates {
		if c.Gates[i].Kind != netlist.Input && d[i] > 0 {
			opt.ZeroDelay = false
			break
		}
	}
	return Compile(c, d, opt)
}

// Compile builds the striped kernel program for the circuit under the
// explicit per-gate delay assignment in ps (one entry per gate, Input
// entries ignored — use Simulator.DelaysPS to guarantee oracle-exact
// delays). The pipeline is: levelization (the netlist's topological
// order becomes the straight-line settle program) → liveness against
// Observe (dead-output elimination) → offset resolution (fan-ins become
// flat slot offsets) → opcode fusion (kind × arity) → delay baking
// (progress-guarded, GCD-normalized, calendar sized).
func Compile(c *netlist.Circuit, delaysPS []int64, opt CompileOptions) *Program {
	start := time.Now()
	n := c.NumGates()
	if len(delaysPS) != n {
		panic(fmt.Sprintf("sim: %d delays for %d gates", len(delaysPS), n))
	}
	w := opt.Width
	if w == 0 {
		w = DefaultStripeWords
	}
	if w < 1 || w > maxStripeWords {
		panic(fmt.Sprintf("sim: stripe width %d (want 1–%d)", w, maxStripeWords))
	}

	// Liveness: observed gates, their transitive fan-in cones, and every
	// primary input (inputs are value sources either way; keeping them
	// live keeps the input-application loop uniform).
	live := make([]bool, n)
	if opt.Observe == nil {
		for i := range live {
			live[i] = true
		}
	} else {
		stack := make([]int32, 0, len(opt.Observe))
		for _, g := range opt.Observe {
			if g < 0 || g >= n {
				panic(fmt.Sprintf("sim: observed gate %d out of range (%d gates)", g, n))
			}
			if !live[g] {
				live[g] = true
				stack = append(stack, int32(g))
			}
		}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, f := range c.Gates[g].Fanin {
				if !live[f] {
					live[f] = true
					stack = append(stack, int32(f))
				}
			}
		}
		for _, idx := range c.Inputs {
			live[idx] = true
		}
	}

	// Slot assignment in ascending gate order: the netlist is
	// topologically sorted, so the live slots read as a levelized
	// straight-line program.
	slotOf := make([]int32, n)
	gates := make([]int32, 0, n)
	for i := range slotOf {
		if live[i] {
			slotOf[i] = int32(len(gates))
			gates = append(gates, int32(i))
		} else {
			slotOf[i] = -1
		}
	}
	nLive := len(gates)
	inputSlot := make([]int32, len(c.Inputs))
	for i, idx := range c.Inputs {
		inputSlot[i] = slotOf[idx]
	}

	// Timed tables: progress-guarded delays (non-positive logic-gate
	// delays become 1 ps, the scalar timed path's guard), then GCD
	// normalization and calendar geometry, restricted to the live cone so
	// a dead region's delays cannot inflate the calendar. Event ordering,
	// inertial filtering and toggle counts are invariant under uniform
	// time scaling, so simulating in units of the GCD shrinks the calendar
	// without changing any outcome; settle times scale back to ps.
	var (
		delays  []int64
		gcdPS   int64
		ringW   int
		occW    int
		maxNorm int64
	)
	if !opt.ZeroDelay {
		delays = make([]int64, nLive)
		var g int64
		for s, gid := range gates {
			if c.Gates[gid].Kind == netlist.Input {
				continue
			}
			d := delaysPS[gid]
			if d < 0 {
				panic(fmt.Sprintf("sim: negative delay for gate %s", c.Gates[gid].Name))
			}
			if d <= 0 {
				d = 1
			}
			delays[s] = d
			g = gcd64(g, d)
		}
		if g == 0 {
			g = 1
		}
		for s := range delays {
			delays[s] /= g
			if delays[s] > maxNorm {
				maxNorm = delays[s]
			}
		}
		if maxNorm == 0 {
			maxNorm = 1
		}
		gcdPS = g
		// Exact horizon: events land at most maxNorm ticks ahead, so
		// maxNorm+1 ring positions guarantee distinct slots without
		// rounding up to a power of two. The calendar itself is sparse
		// (append arenas sized by outstanding events), so a wide horizon
		// costs only the occupancy bitmap, one bit per (gate, position).
		ringW = int(maxNorm) + 1
		occW = (ringW + 63) / 64
	}

	// Instruction stream: fused opcodes and pre-multiplied offsets.
	arity := func(nf int, two, many uint8) uint8 {
		if nf <= 2 {
			return two
		}
		return many
	}
	fop := make([]uint8, nLive)
	fab := make([]uint64, nLive)
	faninOff := make([]int32, nLive+1)
	var totalFanin int32
	for s, gid := range gates {
		fi := c.Gates[gid].Fanin
		nf := len(fi)
		switch c.Gates[gid].Kind {
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
			panic(fmt.Sprintf("sim: unknown gate kind %v", c.Gates[gid].Kind))
		}
		off := func(gid int) uint64 { return uint64(uint32(slotOf[gid])) }
		switch {
		case nf >= 2:
			fab[s] = off(fi[0]) | off(fi[1])<<32
		case nf == 1:
			fab[s] = off(fi[0]) | off(fi[0])<<32
		}
		faninOff[s] = totalFanin
		totalFanin += int32(nf)
	}
	faninOff[nLive] = totalFanin
	faninIdx := make([]int32, 0, totalFanin)
	for _, gid := range gates {
		for _, f := range c.Gates[gid].Fanin {
			faninIdx = append(faninIdx, slotOf[f])
		}
	}

	// Fan-out lists pruned to live consumers: a dead fan-out is exactly
	// the eliminated work — no evaluation, no event, no toggle plane.
	fanouts := c.Fanouts()
	fanoutOff := make([]int32, nLive+1)
	var totalFanout int32
	for s, gid := range gates {
		fanoutOff[s] = totalFanout
		for _, f := range fanouts[gid] {
			if slotOf[f] >= 0 {
				totalFanout++
			}
		}
	}
	fanoutOff[nLive] = totalFanout
	fanoutIdx := make([]int32, 0, totalFanout)
	for _, gid := range gates {
		for _, f := range fanouts[gid] {
			if s := slotOf[f]; s >= 0 {
				fanoutIdx = append(fanoutIdx, s)
			}
		}
	}

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
	if !opt.ZeroDelay {
		arrT = make([]int64, nLive)
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
		w:         w,
		zeroDelay: opt.ZeroDelay,
		nAll:      n,
		nLive:     nLive,
		gates:     gates,
		slotOf:    slotOf,
		inputSlot: inputSlot,
		fop:       fop,
		fab:       fab,
		faninOff:  faninOff,
		faninIdx:  faninIdx,
		fanoutOff: fanoutOff,
		fanoutIdx: fanoutIdx,
		delays:    delays,
		gcdPS:     gcdPS,
		ringW:     ringW,
		occW:      occW,
		arrT:      arrT,
		hazFree:   hazFree,
		fp:        Fingerprint(c, delaysPS, opt),
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
// program: it applies the same ZeroDelay inference before hashing, so
// cache consumers can key-check without compiling.
func FingerprintModel(c *netlist.Circuit, m delay.Model, opt CompileOptions) uint64 {
	if m == nil {
		m = delay.FanoutLoaded{}
	}
	d := m.Assign(c)
	opt.ZeroDelay = true
	for i := range c.Gates {
		if c.Gates[i].Kind != netlist.Input && d[i] > 0 {
			opt.ZeroDelay = false
			break
		}
	}
	return Fingerprint(c, d, opt)
}

// Fingerprint is a structural checksum of everything a compiled program
// depends on: gate kinds and fan-ins, the delay assignment, the observe
// set, and the compile options. Cache consumers compare it on hit, so a
// key collision (two circuits cached under one name) degrades to a
// recompile instead of simulating the wrong netlist.
func Fingerprint(c *netlist.Circuit, delaysPS []int64, opt CompileOptions) uint64 {
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
	if !opt.ZeroDelay {
		for _, d := range delaysPS {
			put(uint64(d))
		}
	}
	put(uint64(opt.Width))
	if opt.ZeroDelay {
		put(1)
	} else {
		put(0)
	}
	if opt.Observe != nil {
		obs := append([]int(nil), opt.Observe...)
		sort.Ints(obs)
		put(uint64(len(obs)) | 1<<63)
		for _, g := range obs {
			put(uint64(g))
		}
	}
	return h.Sum64()
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *netlist.Circuit { return p.c }

// StripeWords returns the stripe width in 64-lane words.
func (p *Program) StripeWords() int { return p.w }

// StripeLanes returns the lane capacity of one stripe (64 · StripeWords).
func (p *Program) StripeLanes() int { return p.w * 64 }

// ZeroDelay reports whether this is the settle-only glitch-free kernel.
func (p *Program) ZeroDelay() bool { return p.zeroDelay }

// SlotGates maps each compiled slot to its original gate id, ascending —
// the indexing of StripedResult's per-slot arrays. It aliases the
// immutable program: read it, never write it.
func (p *Program) SlotGates() []int32 { return p.gates }

// LiveGates returns the number of compiled slots — NumGates minus the
// dead outputs eliminated against the Observe set.
func (p *Program) LiveGates() int { return p.nLive }

// GCDps returns the timed kernel's normalization unit in ps (0 for
// zero-delay programs).
func (p *Program) GCDps() int64 { return p.gcdPS }

// HazardFree returns how many live slots the static hazard analysis
// proved single-transition (see Program.arrT) and the live slot total —
// the compile-time share of the circuit the speculative engine patches
// without any event-merge work. Zero-delay programs report (0, nLive):
// the settle kernel is glitch-free everywhere by construction.
func (p *Program) HazardFree() (free, total int) { return p.hazFree, p.nLive }

// Fingerprint returns the program's structural checksum.
func (p *Program) Fingerprint() uint64 { return p.fp }

// CompileNS returns the wall time Compile spent building this program.
func (p *Program) CompileNS() int64 { return p.compileNS }

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
// through per-goroutine Striped executors.
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
