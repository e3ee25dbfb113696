// Package cpu implements the coarse-grain multithreaded (CGMT) in-order
// pipeline at the heart of every near-memory processor configuration in
// the ViReC evaluation: a single-issue five-stage core (fetch, decode,
// execute, memory, commit) that detects dcache load misses, flushes the
// pipeline and round-robins to another hardware thread. Register-context
// storage is pluggable through the Provider interface, which is what
// distinguishes the banked, software-switched, ViReC and prefetching
// processors — the pipeline itself is identical, as in the paper.
//
// The simulator splits function from timing: instruction results are
// computed with the isa package's evaluators using operand values captured
// at decode (with full forwarding from in-flight instructions), while all
// timing — stage occupancy, dcache/DRAM latency, register fill stalls,
// context-switch masking — is enforced by the per-cycle Tick loop. Every
// run is deterministic.
package cpu

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the pipeline (Table 1's in-order cores).
type Config struct {
	Threads      int // hardware thread slots to schedule
	FetchLatency int // pipelined icache hit latency, cycles
	FetchBufSize int // fetch buffer entries
	SQEntries    int // store queue entries
	MulLatency   int // execute cycles for MUL/MADD
	DivLatency   int // execute cycles for UDIV/SDIV
	FPLatency    int // execute cycles for FADD/FSUB/FMUL/FMADD
	FPDivLatency int // execute cycles for FDIV/FSQRT

	// ValidateValues enables the golden-model check: every operand read
	// from the provider is compared against a shadow architectural
	// context maintained at commit. A mismatch panics — it means the
	// provider's fill/spill value path corrupted a register.
	ValidateValues bool
}

// DefaultConfig returns the Table-1 in-order core configuration.
func DefaultConfig() Config {
	return Config{
		Threads:      8,
		FetchLatency: 2,
		FetchBufSize: 2,
		SQEntries:    5,
		MulLatency:   3,
		DivLatency:   12,
		FPLatency:    4,
		FPDivLatency: 12,
	}
}

// Stats accumulates core statistics.
type Stats struct {
	Cycles          uint64
	Insts           uint64
	InstsPerThread  []uint64
	ContextSwitches uint64
	LoadMissSignals uint64 // dcache switch signals received
	SwitchWaits     uint64 // cycles CSL waited on CanSwitchTo/BlockSwitch
	DecodeRegStalls uint64 // cycles decode stalled in Acquire
	DecodeFwdStalls uint64 // cycles decode stalled on forwarding
	FetchStalls     uint64 // cycles fetch had no slot
	SQFullStalls    uint64 // cycles commit stalled on a full store queue
	StoreLoadStalls uint64 // load issues held behind an uncommitted same-address store
	SwitchCancels   uint64 // switch requests dropped by the commit mask
	MemWaitCycles   uint64 // cycles the MEM stage held an unfinished load
	Loads           uint64
	Stores          uint64
	BranchFlushes   uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Thread is one hardware thread context.
type Thread struct {
	ID      int
	Prog    *asm.Program
	PC      int
	Flags   isa.Flags
	Halted  bool
	Started bool

	// ProgBase is the address the program occupies for instruction-fetch
	// timing when the core has an icache (instructions are 4 bytes each;
	// the functional instruction comes from Prog directly).
	ProgBase mem.Addr

	shadow [isa.NumRegs]uint64 // golden architectural values (commit order)
}

// Shadow returns the golden (commit-order) value of register r; tests use
// it to check results.
func (t *Thread) Shadow(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return t.shadow[r]
}

// SetShadow pre-loads an architectural register (workload setup).
func (t *Thread) SetShadow(r isa.Reg, v uint64) {
	if r != isa.XZR {
		t.shadow[r] = v
	}
}

// inflight is one instruction in the backend.
type inflight struct {
	seq    uint64
	thread int
	pc     int
	in     *isa.Inst

	valRn, valRm, valRa, valRd uint64
	flagsIn                    isa.Flags

	result      uint64
	writesReg   bool
	resultReady bool
	newFlags    isa.Flags
	setsFlags   bool

	effAddr    mem.Addr
	loadIssued bool
	loadDone   bool
	loadVal    uint64

	branchResolved bool
	branchTaken    bool
	exReadyAt      uint64

	squashed bool
}

type fetchSlot struct {
	pc      int
	readyAt uint64 // fixed-latency path
	ready   bool   // icache path: completion arrived
	issued  bool   // icache path: request accepted
	// tag is fresh on every allocation from the pool: an icache completion
	// for a slot that was discarded (and perhaps reused) since its request
	// was issued carries an older tag and is dropped.
	tag uint64
}

// sqEntry is one committed store waiting for its dcache write. The entry
// owns its request; done is the request's Done, bound once when the entry
// is first created.
type sqEntry struct {
	req     mem.Request
	sent    bool
	written bool
	done    func(uint64)
}

func (e *sqEntry) onDone(uint64) { e.written = true }

// loadReq is one dcache load request. A squashed load's completion can
// arrive after its in-flight record was recycled for a younger
// instruction, so completions match the record by seq, never by pointer.
// done and miss are the bound onDone/onMiss, set once at creation.
type loadReq struct {
	req  mem.Request
	c    *Core
	f    *inflight
	seq  uint64
	done func(uint64)
	miss func(uint64)
}

// fetchReq is one icache request for a fetch slot, matched to the slot by
// its per-allocation tag.
type fetchReq struct {
	req  mem.Request
	c    *Core
	slot *fetchSlot
	tag  uint64
	done func(uint64)
}

type switchReason uint8

const (
	switchNone switchReason = iota
	switchMiss
	switchYield
	switchHalt
	switchStart
)

// Core is one near-memory processor.
type Core struct {
	cfg      Config
	provider Provider
	// skipSup caches the provider's SkipSupport view (nil when the
	// provider does not implement it), so the per-cycle skip scan never
	// repeats the type assertion.
	skipSup SkipSupport
	dcache  mem.Device
	icache  mem.Device // nil = fixed-latency fetch pipe
	memory  *mem.Memory
	threads []*Thread

	cur     int // running thread, -1 before first schedule
	seq     uint64
	fetchPC int
	fetchQ  []*fetchSlot

	dec *inflight
	ex  *inflight
	mm  *inflight
	wb  *inflight

	sq []*sqEntry

	// Record pools. An in-flight record or fetch slot returns to its free
	// list when it leaves the pipeline; a request record or store-queue
	// entry when its access completes, or at once if Access rejects it.
	// The lists grow lazily and never shrink.
	freeInflight []*inflight
	freeSlots    []*fetchSlot
	freeSQ       []*sqEntry
	freeLoads    []*loadReq
	freeFetches  []*fetchReq
	slotTag      uint64

	pendingSwitch        switchReason
	pendingAt            uint64
	committedSinceSwitch bool
	zeroCommitSwitches   int // consecutive switches with no commits between

	// onCommit, when set, observes every architecturally committed
	// instruction (the differential-test harness compares the stream
	// against the functional interpreter). lastCommitSeq backs the
	// no-double-commit invariant: sequence numbers are handed out at
	// decode and replayed instructions are re-decoded with fresh ones,
	// so the committed sequence must be strictly increasing.
	onCommit      func(CommitEvent)
	lastCommitSeq uint64

	cycle  uint64
	halted int

	// Per-call scratch buffers, pre-sized so the decode/commit hot path
	// never allocates; no provider retains the slices past its call.
	scratchSrc  []isa.Reg
	scratchDst  []isa.Reg
	scratchNeed []isa.Reg

	// Telemetry. tracer is nil when tracing is off (Emit and Observe are
	// nil-safe, so the disabled path is one branch per site). The
	// histograms are nil until RegisterMetrics wires them.
	tracer          *telemetry.Tracer
	traceCore       int32
	stamper         cycleStamper // non-nil only when tracing a stamping provider
	switchInterval  *telemetry.Histogram
	sqOccupancy     *telemetry.Histogram
	lastSwitchCycle uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New builds a core over the given provider, dcache and functional memory.
// Threads are created halted-less with zero contexts; use Thread to set
// programs and initial registers, then Start.
func New(cfg Config, provider Provider, dcache mem.Device, memory *mem.Memory) *Core {
	def := DefaultConfig()
	if cfg.Threads == 0 {
		cfg.Threads = def.Threads
	}
	if cfg.FetchLatency == 0 {
		cfg.FetchLatency = def.FetchLatency
	}
	if cfg.FetchBufSize == 0 {
		cfg.FetchBufSize = def.FetchBufSize
	}
	if cfg.SQEntries == 0 {
		cfg.SQEntries = def.SQEntries
	}
	if cfg.MulLatency == 0 {
		cfg.MulLatency = def.MulLatency
	}
	if cfg.DivLatency == 0 {
		cfg.DivLatency = def.DivLatency
	}
	if cfg.FPLatency == 0 {
		cfg.FPLatency = def.FPLatency
	}
	if cfg.FPDivLatency == 0 {
		cfg.FPDivLatency = def.FPDivLatency
	}
	c := &Core{
		cfg:      cfg,
		provider: provider,
		dcache:   dcache,
		memory:   memory,
		threads:  make([]*Thread, cfg.Threads),
		cur:      -1,

		scratchSrc:  make([]isa.Reg, 0, 8),
		scratchDst:  make([]isa.Reg, 0, 4),
		scratchNeed: make([]isa.Reg, 0, 8),
	}
	for i := range c.threads {
		c.threads[i] = &Thread{ID: i}
	}
	c.skipSup, _ = provider.(SkipSupport)
	c.Stats.InstsPerThread = make([]uint64, cfg.Threads)
	return c
}

// Thread returns hardware thread i for setup.
func (c *Core) Thread(i int) *Thread { return c.threads[i] }

// SetICache routes instruction-fetch timing through an icache device
// (requests carry Inst=true). Without one, fetch is a fixed-latency
// pipelined path. Must be called before Start.
func (c *Core) SetICache(ic mem.Device) { c.icache = ic }

// Threads returns the number of hardware threads.
func (c *Core) Threads() int { return len(c.threads) }

// Provider returns the register provider (for stats extraction).
func (c *Core) Provider() Provider { return c.provider }

// Start marks setup complete: the first schedule targets thread 0.
func (c *Core) Start() {
	c.halted = 0
	for _, t := range c.threads {
		if t.Prog == nil {
			t.Halted = true
			c.halted++
		}
	}
	if c.halted == len(c.threads) {
		return
	}
	c.pendingSwitch = switchStart
}

// Done reports whether every thread has halted.
func (c *Core) Done() bool { return c.halted == len(c.threads) }

// Cur returns the running thread id (-1 when none).
func (c *Core) Cur() int { return c.cur }

// Tick advances one cycle. The caller ticks the memory hierarchy after
// all cores so that accesses issued this cycle are seen by the caches.
//
//virec:hotpath
func (c *Core) Tick(cycle uint64) {
	c.cycle = cycle
	if c.stamper != nil {
		c.stamper.StampCycle(cycle)
	}
	if c.Done() {
		return
	}
	c.Stats.Cycles++
	c.commitStage()
	c.memStage()
	c.exStage()
	c.decodeStage()
	c.fetchStage()
	c.csl()
	c.drainSQ()
	c.provider.Tick(cycle)
}

// ---- commit ----

// CommitEvent describes one architecturally committed instruction: its
// location, the destination-register writeback (if any) and the memory
// effect (if any). Store data is masked to the access width so it compares
// directly against what lands in memory.
type CommitEvent struct {
	Thread int
	Seq    uint64
	PC     int
	Inst   *isa.Inst
	Wrote  bool     // a non-XZR register was written back
	Rd     isa.Reg  // destination register when Wrote
	Val    uint64   // value written when Wrote
	Addr   mem.Addr // effective address for loads/stores
	Data   uint64   // store data, masked to the access width
}

// SetOnCommit installs a per-commit observer. The callback fires once per
// committed instruction, in commit order, after the writeback has reached
// the provider and the shadow context. A nil fn disables the hook (the
// commit path then pays one branch).
func (c *Core) SetOnCommit(fn func(CommitEvent)) { c.onCommit = fn }

func (c *Core) commitStage() {
	f := c.wb
	if f == nil || f.squashed {
		c.wb = nil
		return
	}
	in := f.in

	// Stores need a free store-queue slot.
	if in.IsStore() {
		if len(c.sq) >= c.cfg.SQEntries {
			c.Stats.SQFullStalls++
			return
		}
		c.memory.Write(f.effAddr, in.MemBytes(), f.valRd)
		e := c.newSQEntry()
		e.req = mem.Request{Addr: f.effAddr, Size: in.MemBytes(), Kind: mem.Write, Done: e.done}
		c.sq = append(c.sq, e)
		c.Stats.Stores++
		c.sqOccupancy.Observe(uint64(len(c.sq)))
	}

	th := c.threads[f.thread]
	rd := isa.XZR
	var val uint64
	wrote := false
	if f.writesReg && in.Op != isa.NOP {
		if dsts := in.DstRegs(c.scratchDst[:0]); len(dsts) > 0 {
			rd = dsts[0]
		}
		if rd != isa.XZR {
			val = f.result
			if in.IsLoad() {
				val = f.loadVal
			}
			th.shadow[rd] = val
			c.provider.WriteValue(f.thread, rd, val)
			wrote = true
		}
	}
	if f.setsFlags {
		th.Flags = f.newFlags
	}

	// No-double-commit invariant: flushes squash uncommitted instructions
	// and replays re-decode them under fresh sequence numbers, so the
	// committed sequence is strictly increasing — a repeat here means an
	// instruction retired twice.
	if f.seq <= c.lastCommitSeq {
		panic(fmt.Sprintf("cpu: double commit: seq %d after %d (t%d pc=%d %s)",
			f.seq, c.lastCommitSeq, f.thread, f.pc, in))
	}
	c.lastCommitSeq = f.seq
	if c.onCommit != nil {
		ev := CommitEvent{Thread: f.thread, Seq: f.seq, PC: f.pc, Inst: in,
			Wrote: wrote, Rd: rd, Val: val}
		if in.IsMem() {
			ev.Addr = f.effAddr
			if in.IsStore() {
				d := f.valRd
				if n := in.MemBytes(); n < 8 {
					d &= 1<<(8*uint(n)) - 1
				}
				ev.Data = d
			}
		}
		c.onCommit(ev)
	}

	c.provider.InstCommitted(f.thread, f.seq)
	c.Stats.Insts++
	c.Stats.InstsPerThread[f.thread]++
	c.committedSinceSwitch = true
	if c.tracer != nil {
		c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
			telemetry.StageCommit, uint64(f.pc), f.seq)
	}
	c.wb = nil
	c.freeInflight = append(c.freeInflight, f)
	thread := f.thread

	switch in.Op {
	case isa.HALT:
		th.Halted = true
		c.halted++
		c.provider.ThreadHalted(thread)
		c.flushPipeline(-1) // discard younger wrong-path instructions
		if !c.Done() {
			c.pendingSwitch = switchHalt
			c.pendingAt = c.cycle
		} else {
			c.cur = -1
		}
	case isa.YIELD:
		if c.pendingSwitch == switchNone {
			c.pendingSwitch = switchYield
			c.pendingAt = c.cycle
		}
	}
}

// ---- memory stage ----

func (c *Core) memStage() {
	f := c.mm
	if f == nil {
		return
	}
	if f.squashed {
		c.mm = nil
		return
	}
	in := f.in
	if in.IsLoad() {
		if !f.loadIssued {
			// An older store stalled at commit (store queue full) has not
			// written functional memory yet; a load overlapping its address
			// must wait, or its completion callback would read around the
			// store. Committed stores are already in functional memory, so
			// only the WB stage can hold such a store.
			if s := c.wb; s != nil && !s.squashed && s.in.IsStore() &&
				s.effAddr < f.effAddr+mem.Addr(in.MemBytes()) &&
				f.effAddr < s.effAddr+mem.Addr(s.in.MemBytes()) {
				c.Stats.StoreLoadStalls++
				return
			}
			c.issueLoad(f)
			if !f.loadIssued {
				return // port/MSHR busy, retry next cycle
			}
		}
		if !f.loadDone {
			c.Stats.MemWaitCycles++
			return
		}
	}
	if c.wb == nil {
		c.wb = f
		c.mm = nil
	}
}

func (c *Core) issueLoad(f *inflight) {
	r := c.newLoadReq()
	r.f, r.seq = f, f.seq
	r.req = mem.Request{Addr: f.effAddr, Size: f.in.MemBytes(), Kind: mem.Read,
		Done: r.done, Miss: r.miss}
	if !c.dcache.Access(&r.req) {
		c.releaseLoadReq(r)
		return
	}
	f.loadIssued = true
	c.Stats.Loads++
}

// live reports whether the load's instruction still occupies its record:
// not squashed, and the record not recycled for a younger instruction.
func (r *loadReq) live() bool { return r.f.seq == r.seq && !r.f.squashed }

func (r *loadReq) onDone(uint64) {
	if r.live() {
		f := r.f
		f.loadDone = true
		f.loadVal = isa.LoadExtend(f.in.Op, r.c.memory.Read(f.effAddr, f.in.MemBytes()))
	}
	r.c.releaseLoadReq(r)
}

func (r *loadReq) onMiss(cycle uint64) {
	if !r.live() {
		return
	}
	c := r.c
	c.Stats.LoadMissSignals++
	if c.tracer != nil {
		c.tracer.Emit(cycle, telemetry.EvLoadMiss, c.traceCore,
			int32(r.f.thread), uint64(r.f.effAddr), 0, 0)
	}
	if c.pendingSwitch == switchNone {
		c.pendingSwitch = switchMiss
		c.pendingAt = cycle
	}
}

// ---- execute ----

func (c *Core) exStage() {
	f := c.ex
	if f == nil {
		return
	}
	if f.squashed {
		c.ex = nil
		return
	}
	in := f.in

	if !f.resultReady {
		f.exReadyAt = c.cycle
		switch {
		case in.IsMem():
			f.effAddr = mem.Addr(isa.EffAddr(in, f.valRn, f.valRm))
			f.writesReg = in.IsLoad()
		case in.IsBranch():
			f.branchTaken = isa.BranchTaken(in, f.flagsIn, f.valRn)
			f.branchResolved = true
			if in.Op == isa.BL {
				f.result = uint64(f.pc + 1)
				f.writesReg = true
			}
			if f.branchTaken {
				target := int(in.Target)
				if in.Op == isa.RET {
					target = int(f.valRn)
				}
				// Unconditional B/BL were redirected at decode; only
				// redirect (and flush wrong-path work) for the rest.
				if in.Op != isa.B && in.Op != isa.BL {
					if c.dec != nil {
						c.squash(c.dec)
						c.dec = nil
					}
					c.redirect(target)
					c.Stats.BranchFlushes++
				}
			}
		default:
			r := isa.EvalALU(in, f.valRn, f.valRm, f.valRa, f.flagsIn)
			f.result, f.writesReg = r.Value, r.WritesReg
			f.newFlags, f.setsFlags = r.Flags, r.WritesFlag
			switch in.Op {
			case isa.MUL, isa.MADD:
				f.exReadyAt = c.cycle + uint64(c.cfg.MulLatency) - 1
			case isa.UDIV, isa.SDIV:
				f.exReadyAt = c.cycle + uint64(c.cfg.DivLatency) - 1
			case isa.FADD, isa.FSUB, isa.FMUL, isa.FMADD, isa.SCVTF, isa.FCVTZS:
				f.exReadyAt = c.cycle + uint64(c.cfg.FPLatency) - 1
			case isa.FDIV, isa.FSQRT:
				f.exReadyAt = c.cycle + uint64(c.cfg.FPDivLatency) - 1
			}
		}
		f.resultReady = true
	}
	if c.cycle < f.exReadyAt {
		return
	}
	if c.mm == nil {
		if c.tracer != nil {
			c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
				telemetry.StageMem, uint64(f.pc), f.seq)
		}
		c.mm = f
		c.ex = nil
	}
}

// redirect discards the fetch buffer and restarts fetch at target. The
// caller squashes any wrong-path decode latch itself: a branch redirecting
// from decode must not squash itself.
func (c *Core) redirect(target int) {
	c.clearFetchQ()
	c.fetchPC = target
}

// ---- decode ----

// producerOf finds the youngest in-flight instruction writing r for the
// running thread, searching EX, MEM then WB. It returns the forwarded
// value when available, or stall=true when the producer hasn't finished.
func (c *Core) producerOf(r isa.Reg) (val uint64, found, stall bool) {
	for _, f := range [...]*inflight{c.ex, c.mm, c.wb} {
		if f == nil || f.squashed {
			continue
		}
		dsts := f.in.DstRegs(c.scratchDst[:0])
		writes := false
		for _, d := range dsts {
			if d == r {
				writes = true
			}
		}
		if !writes {
			continue
		}
		if f.in.IsLoad() {
			if f.loadDone {
				return f.loadVal, true, false
			}
			return 0, true, true
		}
		if f.resultReady && f.writesReg {
			return f.result, true, false
		}
		return 0, true, true
	}
	return 0, false, false
}

// flagsProducer finds in-flight flag state: (flags, found, stall).
func (c *Core) flagsProducer() (isa.Flags, bool, bool) {
	for _, f := range [...]*inflight{c.ex, c.mm, c.wb} {
		if f == nil || f.squashed || !f.in.SetsFlags() {
			continue
		}
		if f.resultReady {
			return f.newFlags, true, false
		}
		return isa.Flags{}, true, true
	}
	return isa.Flags{}, false, false
}

func (c *Core) decodeStage() {
	f := c.dec
	if f == nil {
		return
	}
	if f.squashed {
		c.dec = nil
		return
	}
	// Stall decode while an unresolved control-flow instruction is ahead:
	// the scalar core does not fetch or decode down an unknown path.
	if older := c.ex; older != nil && !older.squashed && older.in.IsBranch() &&
		!older.branchResolved && older.in.Op != isa.B && older.in.Op != isa.BL {
		return
	}
	in := f.in

	// Gather operand values: forwarding first, provider for the rest.
	// At most four distinct sources exist, so dedupe by scanning the
	// already-gathered entries instead of building a set.
	srcs := in.SrcRegs(c.scratchSrc[:0])
	need := c.scratchNeed[:0]
	var got [4]operand
	n := 0
srcLoop:
	for _, r := range srcs {
		if r == isa.XZR {
			continue
		}
		for i := 0; i < n; i++ {
			if got[i].reg == r {
				continue srcLoop
			}
		}
		if n >= len(got) {
			break
		}
		v, found, stall := c.producerOf(r)
		if stall {
			c.Stats.DecodeFwdStalls++
			return
		}
		got[n] = operand{reg: r, val: v, ok: found}
		n++
		if !found {
			need = append(need, r)
		}
	}
	var flagsIn isa.Flags
	if in.ReadsFlags() {
		fl, found, stall := c.flagsProducer()
		if stall {
			c.Stats.DecodeFwdStalls++
			return
		}
		if found {
			flagsIn = fl
		} else {
			flagsIn = c.threads[f.thread].Flags
		}
	}

	if !c.provider.Acquire(f.thread, in, need) {
		c.Stats.DecodeRegStalls++
		return
	}
	if c.ex != nil {
		return // structural: EX occupied
	}

	// Read non-forwarded values from the provider.
	for i := 0; i < n; i++ {
		if !got[i].ok {
			got[i].val = c.provider.ReadValue(f.thread, got[i].reg)
			got[i].ok = true
			if c.cfg.ValidateValues {
				want := c.threads[f.thread].Shadow(got[i].reg)
				if got[i].val != want {
					panic(fmt.Sprintf(
						"cpu: value corruption: thread %d %s = %#x, golden %#x (pc %d, %s)",
						f.thread, got[i].reg, got[i].val, want, f.pc, in))
				}
			}
		}
	}
	ops := got[:n]
	// Operand roles depend on the op; see isa.Inst.
	switch {
	case in.IsStore():
		f.valRd = operandVal(ops, in.Rd)
		f.valRn = operandVal(ops, in.Rn)
		f.valRm = operandVal(ops, in.Rm)
	case in.Op == isa.MOVK:
		f.valRn = operandVal(ops, in.Rd) // read-modify-write of Rd
	default:
		f.valRn = operandVal(ops, in.Rn)
		f.valRm = operandVal(ops, in.Rm)
		f.valRa = operandVal(ops, in.Ra)
	}
	f.flagsIn = flagsIn

	// Early redirect for unconditional direct branches.
	if in.Op == isa.B || in.Op == isa.BL {
		c.redirect(int(in.Target))
	}

	c.provider.InstDecoded(f.thread, f.seq, in)
	if c.tracer != nil {
		c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
			telemetry.StageExecute, uint64(f.pc), f.seq)
	}
	c.ex = f
	c.dec = nil
}

// operand is one distinct source register gathered at decode; ok is set
// once val holds its value (forwarded or read from the provider).
type operand struct {
	reg isa.Reg
	val uint64
	ok  bool
}

// operandVal returns r's gathered value; XZR and unlisted registers read 0.
func operandVal(ops []operand, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	for i := range ops {
		if ops[i].reg == r {
			return ops[i].val
		}
	}
	return 0
}

// ---- fetch ----

func (c *Core) fetchStage() {
	if c.cur < 0 || c.threads[c.cur].Halted {
		return
	}
	// Move a ready slot into decode.
	if c.dec == nil && len(c.fetchQ) > 0 && c.fetchReady(c.fetchQ[0]) {
		pc := c.fetchQ[0].pc
		c.freeSlots = append(c.freeSlots, c.fetchQ[0])
		n := copy(c.fetchQ, c.fetchQ[1:])
		c.fetchQ[n] = nil
		c.fetchQ = c.fetchQ[:n]
		c.seq++
		f := c.newInflight()
		*f = inflight{seq: c.seq, thread: c.cur, pc: pc, in: c.threads[c.cur].Prog.At(pc)}
		c.dec = f
		if c.tracer != nil {
			c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(c.cur),
				telemetry.StageDecode, uint64(pc), c.seq)
		}
	}
	// Issue icache requests for queued slots (one per cycle).
	if c.icache != nil {
		for _, slot := range c.fetchQ {
			if !slot.issued {
				c.issueFetch(slot)
				break
			}
		}
	}
	// Enqueue the next fetch.
	if len(c.fetchQ) < c.cfg.FetchBufSize {
		slot := c.newFetchSlot()
		c.slotTag++
		*slot = fetchSlot{pc: c.fetchPC, tag: c.slotTag,
			readyAt: c.cycle + uint64(c.cfg.FetchLatency)}
		if c.icache != nil {
			c.issueFetch(slot)
		}
		c.fetchQ = append(c.fetchQ, slot)
		c.fetchPC++
	} else {
		c.Stats.FetchStalls++
	}
}

// fetchReady reports whether a fetch slot's instruction bytes are
// available to decode.
func (c *Core) fetchReady(s *fetchSlot) bool {
	if c.icache == nil {
		return s.readyAt <= c.cycle
	}
	return s.ready
}

// issueFetch sends an instruction-fetch request to the icache. A rejected
// request (port busy) retries on a later cycle.
func (c *Core) issueFetch(s *fetchSlot) {
	r := c.newFetchReq()
	r.slot, r.tag = s, s.tag
	r.req = mem.Request{Addr: c.threads[c.cur].ProgBase + mem.Addr(s.pc*isa.InstBytes),
		Size: isa.InstBytes, Kind: mem.Read, Inst: true, Done: r.done}
	if c.icache.Access(&r.req) {
		s.issued = true
	} else {
		c.releaseFetchReq(r)
	}
}

func (r *fetchReq) onDone(uint64) {
	if r.slot.tag == r.tag {
		r.slot.ready = true
	}
	r.c.releaseFetchReq(r)
}

// ---- context switching logic ----

// oldestInflight returns the oldest non-squashed in-flight instruction.
func (c *Core) oldestInflight() *inflight {
	for _, f := range [...]*inflight{c.wb, c.mm, c.ex, c.dec} {
		if f != nil && !f.squashed {
			return f
		}
	}
	return nil
}

func (c *Core) csl() {
	if c.pendingSwitch == switchNone || c.cycle < c.pendingAt {
		return
	}
	reason := c.pendingSwitch

	if reason == switchMiss {
		// The missing load may have completed while the switch was
		// masked; if so the switch is moot.
		if c.mm == nil || !c.mm.in.IsLoad() || c.mm.loadDone {
			c.pendingSwitch = switchNone
			return
		}
		// Mask 1: older long-running instructions must drain first — the
		// missing load must be the oldest in-flight instruction (the
		// rollback queue's oldest-is-memory signal).
		if c.oldestInflight() != c.mm {
			c.Stats.SwitchWaits++
			return
		}
		// Mask 3: the commit-stage signal stops the CSL from cycling
		// through threads when memory latency cannot be covered. A single
		// zero-commit switch is allowed (polling the next thread is how
		// switch-on-miss hides latency); once a full rotation happens
		// with no thread committing anything, hold the current thread
		// until its load returns instead of spinning.
		if !c.committedSinceSwitch && c.zeroCommitSwitches >= c.liveThreads()-1 {
			c.pendingSwitch = switchNone
			c.Stats.SwitchCancels++
			return
		}
	}

	// Mask 2: the BSI blocks switches during outstanding fills/spills.
	if c.provider.BlockSwitch() {
		c.Stats.SwitchWaits++
		return
	}

	next := c.nextThread()
	if next < 0 || (next == c.cur && reason != switchStart) {
		c.pendingSwitch = switchNone
		return
	}
	th := c.threads[next]
	if !th.Started {
		th.Started = true
		c.provider.ThreadStarted(next)
	}
	if !c.provider.CanSwitchTo(next) {
		c.Stats.SwitchWaits++
		return
	}

	// Perform the switch.
	prev := c.cur
	if reason == switchMiss || reason == switchYield {
		c.flushPipeline(prev)
	}
	if prev >= 0 {
		c.provider.PipelineFlushed(prev)
	}
	c.provider.OnSwitch(prev, next)
	c.cur = next
	c.fetchPC = th.PC
	c.clearFetchQ()
	if c.committedSinceSwitch {
		c.zeroCommitSwitches = 0
	} else {
		c.zeroCommitSwitches++
	}
	c.committedSinceSwitch = false
	c.pendingSwitch = switchNone
	if reason != switchStart {
		c.Stats.ContextSwitches++
		c.switchInterval.Observe(c.cycle - c.lastSwitchCycle)
	}
	c.lastSwitchCycle = c.cycle
	if c.tracer != nil {
		var why uint64
		switch reason {
		case switchMiss:
			why = telemetry.SwitchLoadMiss
		case switchYield:
			why = telemetry.SwitchYield
		case switchHalt:
			why = telemetry.SwitchHalt
		default:
			why = telemetry.SwitchStart
		}
		c.tracer.Emit(c.cycle, telemetry.EvSwitch, c.traceCore, int32(next),
			uint64(int64(prev)), why, 0)
	}
}

// flushPipeline squashes all in-flight instructions and, when thread >= 0,
// rewinds that thread's PC to the oldest squashed instruction for replay.
func (c *Core) flushPipeline(thread int) {
	replayPC := -1
	// Scan oldest (WB) to youngest (decode): the replay point is the
	// oldest squashed instruction of the thread.
	for _, f := range [...]*inflight{c.wb, c.mm, c.ex, c.dec} {
		if f != nil && !f.squashed {
			if f.thread == thread && replayPC < 0 {
				replayPC = f.pc
			}
			c.squash(f)
		}
	}
	c.dec, c.ex, c.mm, c.wb = nil, nil, nil, nil
	if thread >= 0 {
		switch {
		case replayPC >= 0:
			c.threads[thread].PC = replayPC
		case len(c.fetchQ) > 0:
			c.threads[thread].PC = c.fetchQ[0].pc
		default:
			c.threads[thread].PC = c.fetchPC
		}
	}
	c.clearFetchQ()
}

// liveThreads returns the number of unhalted threads.
func (c *Core) liveThreads() int {
	n := 0
	for _, t := range c.threads {
		if !t.Halted {
			n++
		}
	}
	return n
}

// nextThread picks the round-robin successor of the current thread.
func (c *Core) nextThread() int {
	n := len(c.threads)
	start := c.cur
	if start < 0 {
		start = n - 1
	}
	for i := 1; i <= n; i++ {
		cand := (start + i) % n
		if !c.threads[cand].Halted {
			return cand
		}
	}
	return -1
}

// ---- store queue ----

func (c *Core) drainSQ() {
	// Issue the oldest unsent store; the dcache port arbiter naturally
	// prioritizes loads because the MEM stage runs earlier in the cycle.
	for _, e := range c.sq {
		if !e.sent {
			if c.dcache.Access(&e.req) {
				e.sent = true
			}
			break
		}
	}
	for len(c.sq) > 0 && c.sq[0].written {
		c.freeSQ = append(c.freeSQ, c.sq[0])
		n := copy(c.sq, c.sq[1:])
		c.sq[n] = nil
		c.sq = c.sq[:n]
	}
}

// ---- record pools ----

// squash marks a latched instruction squashed and returns its record to
// the pool; an outstanding load completion for it is dropped by seq.
func (c *Core) squash(f *inflight) {
	f.squashed = true
	c.freeInflight = append(c.freeInflight, f)
}

// clearFetchQ discards the fetch buffer. Completions still in flight for
// the discarded slots are dropped by tag.
func (c *Core) clearFetchQ() {
	c.freeSlots = append(c.freeSlots, c.fetchQ...)
	clear(c.fetchQ)
	c.fetchQ = c.fetchQ[:0]
}

func (c *Core) newInflight() *inflight {
	if n := len(c.freeInflight); n > 0 {
		f := c.freeInflight[n-1]
		c.freeInflight = c.freeInflight[:n-1]
		return f
	}
	//virec:alloc-ok pool growth, bounded by the four pipeline latches
	return &inflight{}
}

func (c *Core) newFetchSlot() *fetchSlot {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return s
	}
	//virec:alloc-ok pool growth, bounded by the fetch buffer size
	return &fetchSlot{}
}

func (c *Core) newSQEntry() *sqEntry {
	if n := len(c.freeSQ); n > 0 {
		e := c.freeSQ[n-1]
		c.freeSQ = c.freeSQ[:n-1]
		e.sent, e.written = false, false
		return e
	}
	//virec:alloc-ok pool growth, bounded by the store queue size
	e := &sqEntry{}
	e.done = e.onDone
	return e
}

func (c *Core) newLoadReq() *loadReq {
	if n := len(c.freeLoads); n > 0 {
		r := c.freeLoads[n-1]
		c.freeLoads = c.freeLoads[:n-1]
		return r
	}
	//virec:alloc-ok pool growth, bounded by the loads in flight
	r := &loadReq{c: c}
	r.done, r.miss = r.onDone, r.onMiss
	return r
}

func (c *Core) releaseLoadReq(r *loadReq) {
	r.f = nil
	c.freeLoads = append(c.freeLoads, r)
}

func (c *Core) newFetchReq() *fetchReq {
	if n := len(c.freeFetches); n > 0 {
		r := c.freeFetches[n-1]
		c.freeFetches = c.freeFetches[:n-1]
		return r
	}
	//virec:alloc-ok pool growth, bounded by the icache fetches in flight
	r := &fetchReq{c: c}
	r.done = r.onDone
	return r
}

func (c *Core) releaseFetchReq(r *fetchReq) {
	r.slot = nil
	c.freeFetches = append(c.freeFetches, r)
}

// ---- clock skip-ahead ----

// skipClass records which stall counters a pure-stall cycle increments,
// mirroring exactly what a normally ticked cycle would have counted.
type skipClass struct {
	memWait    bool // MEM holds an issued, unfinished load
	decodeFwd  bool // decode stalled on an in-flight producer
	decodeReg  bool // decode stalled on a statelessly rejected Acquire
	fetchFull  bool // fetch buffer full (live thread, no free slot)
	switchWait bool // CSL pure-waiting (Mask 1/2 or CanSwitchTo not ready)
}

// minDeadline folds deadline d into cur, where 0 means "none yet".
func minDeadline(cur, d uint64) uint64 {
	if cur == 0 || d < cur {
		return d
	}
	return cur
}

// skipScan classifies the core's current stall, read-only. ok reports
// whether ticking the core at now+1 would be a pure stall: a cycle that
// increments exactly the counters named by cls and changes no other state
// (no stage movement, no memory-system access, no provider mutation, no
// trace event). deadline, when non-zero, is the first future cycle at
// which this classification stops being self-evidently stable (an EX
// latency expiring, a fixed-latency fetch slot maturing, a masked switch
// becoming eligible); external completions are bounded by the memory-side
// NextEvent scan instead. The provider must implement SkipSupport (NextEvent
// checks). The soundness argument lives in DESIGN.md §15.
func (c *Core) skipScan(now uint64) (cls skipClass, deadline uint64, ok bool) {
	// Commit: anything latched in WB retires (or probes the store queue).
	if c.wb != nil {
		return cls, 0, false
	}
	// MEM: only an issued, unfinished load is a pure wait; an unissued
	// load retries the dcache port and a finished op moves to WB.
	if f := c.mm; f != nil {
		if f.squashed || !f.in.IsLoad() || !f.loadIssued || f.loadDone {
			return cls, 0, false
		}
		cls.memWait = true
	}
	// EX: an op still counting down its latency matures at exReadyAt; a
	// finished op behind an occupied MEM stage waits without a deadline.
	if f := c.ex; f != nil {
		if f.squashed || !f.resultReady {
			return cls, 0, false
		}
		if c.mm == nil {
			if now >= f.exReadyAt {
				return cls, 0, false // would move to MEM
			}
			deadline = minDeadline(deadline, f.exReadyAt)
		}
	}
	// Decode: a forwarding stall is pure; past the operand scan,
	// decodeStage re-Acquires the latched instruction every cycle, so the
	// cycle is only skippable when the provider proves the repeated call
	// is a stateless no-op (PeekAcquire). A stateless success behind an
	// occupied EX is the uncounted structural stall; a stateless
	// rejection counts DecodeRegStalls; a success with EX free would
	// dispatch. (The unresolved-branch guard cannot be the active stall
	// here: a branch in EX resolves the cycle its result is computed, and
	// !resultReady already bailed above.)
	if f := c.dec; f != nil {
		if f.squashed {
			return cls, 0, false
		}
		fwdStalled, need := c.decodeScan()
		switch {
		case fwdStalled:
			cls.decodeFwd = true
		default:
			ready, pure := c.skipSup.PeekAcquire(f.thread, f.in, need)
			if !pure {
				return cls, 0, false
			}
			if ready {
				if c.ex == nil {
					return cls, 0, false // would dispatch to EX
				}
			} else {
				cls.decodeReg = true
			}
		}
	}
	// Fetch: a live thread with buffer space enqueues; an unissued icache
	// slot retries its port; a ready head moves into decode.
	if c.cur >= 0 && !c.threads[c.cur].Halted {
		if len(c.fetchQ) < c.cfg.FetchBufSize {
			return cls, 0, false
		}
		if c.icache != nil {
			for _, s := range c.fetchQ {
				if !s.issued {
					return cls, 0, false
				}
			}
		}
		if c.dec == nil && len(c.fetchQ) > 0 {
			s := c.fetchQ[0]
			if c.icache == nil {
				if s.readyAt <= now {
					return cls, 0, false
				}
				deadline = minDeadline(deadline, s.readyAt)
			} else if s.ready {
				return cls, 0, false
			}
		}
		cls.fetchFull = true
	}
	// CSL: a masked switch wakes at pendingAt; past that, only the
	// SwitchWaits paths of csl are pure.
	if c.pendingSwitch != switchNone {
		if now < c.pendingAt {
			deadline = minDeadline(deadline, c.pendingAt)
		} else {
			wait, pure := c.cslPureWait()
			if !pure {
				return cls, 0, false
			}
			cls.switchWait = wait
		}
	}
	// Store queue: an unsent entry retries its dcache access; a completed
	// head would be popped.
	for _, e := range c.sq {
		if !e.sent {
			return cls, 0, false
		}
	}
	if len(c.sq) > 0 && c.sq[0].written {
		return cls, 0, false
	}
	return cls, deadline, true
}

// decodeScan mirrors decodeStage's operand scan read-only. fwdStalled
// reports that decode would stall on an in-flight producer this cycle
// (the pure DecodeFwdStalls wait); otherwise need lists the sources the
// provider must supply — exactly the needSrcs the real Acquire call gets
// — for the PeekAcquire preview. need aliases the core's scratch buffer
// and is only valid until the next stage call.
func (c *Core) decodeScan() (fwdStalled bool, need []isa.Reg) {
	in := c.dec.in
	srcs := in.SrcRegs(c.scratchSrc[:0])
	need = c.scratchNeed[:0]
	var seen [4]isa.Reg
	n := 0
srcLoop:
	for _, r := range srcs {
		if r == isa.XZR {
			continue
		}
		for i := 0; i < n; i++ {
			if seen[i] == r {
				continue srcLoop
			}
		}
		if n >= len(seen) {
			break
		}
		_, found, stall := c.producerOf(r)
		if stall {
			return true, nil
		}
		seen[n] = r
		n++
		if !found {
			need = append(need, r)
		}
	}
	if in.ReadsFlags() {
		if _, _, stall := c.flagsProducer(); stall {
			return true, nil
		}
	}
	return false, need
}

// cslPureWait mirrors csl's decision chain read-only for an unmasked
// pending switch. wait reports that csl would increment SwitchWaits and
// return (a pure stall); pure=false means csl would mutate state (clear
// or cancel the switch, start a thread, claim provider resources, or
// perform the switch) and the cycle must be ticked normally.
func (c *Core) cslPureWait() (wait, pure bool) {
	reason := c.pendingSwitch
	if reason == switchMiss {
		if c.mm == nil || !c.mm.in.IsLoad() || c.mm.loadDone {
			return false, false // moot: csl clears the pending switch
		}
		if c.oldestInflight() != c.mm {
			return true, true // Mask 1
		}
		if !c.committedSinceSwitch && c.zeroCommitSwitches >= c.liveThreads()-1 {
			return false, false // Mask 3 cancels the switch
		}
	}
	if c.provider.BlockSwitch() {
		return true, true // Mask 2
	}
	next := c.nextThread()
	if next < 0 || (next == c.cur && reason != switchStart) {
		return false, false
	}
	if !c.threads[next].Started {
		return false, false
	}
	ready, p := c.skipSup.PeekCanSwitch(next)
	if !p || ready {
		return false, false
	}
	return true, true
}

// NextEvent returns the earliest cycle in (now, horizon] at which ticking
// this core could do anything beyond a pure stall. A fully passive core —
// nothing changes until an external completion callback arrives, and
// those are bounded by the memory devices' own NextEvent scans — returns
// horizon; one that must be ticked normally returns now+1. The method is
// read-only; now must be the last ticked cycle and horizon must exceed
// now+1.
func (c *Core) NextEvent(now, horizon uint64) uint64 {
	if c.Done() {
		return horizon
	}
	if c.skipSup == nil || !c.skipSup.SkipQuiescent() {
		return now + 1
	}
	_, deadline, skippable := c.skipScan(now)
	if !skippable {
		return now + 1
	}
	if deadline == 0 {
		return horizon
	}
	return min(max(deadline, now+1), horizon)
}

// SkipTo advances the core's clock from its current cycle to last (the
// final cycle of a skipped run), applying exactly the per-cycle effects
// normal ticking would have had: Stats.Cycles, the stall counters of the
// current stall class, the trace-clock stamp, and one provider Tick (a
// quiescent no-op that keeps the provider's cycle stamp in sync, so
// policy timestamps stay byte-identical with the unskipped run). The
// caller must have validated the run with NextEvent on every component:
// each cycle in (c.cycle, last] is a pure stall.
func (c *Core) SkipTo(last uint64) {
	if last <= c.cycle {
		return
	}
	n := last - c.cycle
	if c.stamper != nil {
		c.stamper.StampCycle(last)
	}
	if c.Done() {
		c.cycle = last
		return
	}
	cls, _, ok := c.skipScan(c.cycle)
	if !ok {
		panic("cpu: SkipTo on a core that is not purely stalled")
	}
	c.cycle = last
	c.Stats.Cycles += n
	if cls.memWait {
		c.Stats.MemWaitCycles += n
	}
	if cls.decodeFwd {
		c.Stats.DecodeFwdStalls += n
	}
	if cls.decodeReg {
		c.Stats.DecodeRegStalls += n
	}
	if cls.fetchFull {
		c.Stats.FetchStalls += n
	}
	if cls.switchWait {
		c.Stats.SwitchWaits += n
	}
	c.provider.Tick(last)
}

// ---- telemetry ----

// cycleStamper is implemented by providers that timestamp their own trace
// events. The core feeds the stamp at the top of Tick — before any stage
// can call into the provider — so decode-driven provider events (register
// misses, victim selections) carry the exact emitting cycle even though
// the provider's own Tick runs last.
type cycleStamper interface{ StampCycle(uint64) }

// SetTelemetry attaches a cycle-level event tracer. A nil tracer keeps
// the emit paths disabled (one branch, zero allocations).
func (c *Core) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	c.tracer = tr
	c.traceCore = int32(coreID)
	c.stamper = nil
	if tr != nil {
		if s, ok := c.provider.(cycleStamper); ok {
			c.stamper = s
		}
	}
}

// RegisterMetrics wires the core's counters and histograms into a
// registry under prefix (e.g. "core0"). Counters alias the Stats fields,
// so registered metrics reconcile exactly with the reported tables.
func (c *Core) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &c.Stats
	r.Counter(prefix+"/cycles", &s.Cycles)
	r.Counter(prefix+"/insts", &s.Insts)
	r.Counter(prefix+"/ctx_switches", &s.ContextSwitches)
	r.Counter(prefix+"/load_miss_signals", &s.LoadMissSignals)
	r.Counter(prefix+"/switch_waits", &s.SwitchWaits)
	r.Counter(prefix+"/decode_reg_stalls", &s.DecodeRegStalls)
	r.Counter(prefix+"/decode_fwd_stalls", &s.DecodeFwdStalls)
	r.Counter(prefix+"/fetch_stalls", &s.FetchStalls)
	r.Counter(prefix+"/sq_full_stalls", &s.SQFullStalls)
	r.Counter(prefix+"/store_load_stalls", &s.StoreLoadStalls)
	r.Counter(prefix+"/switch_cancels", &s.SwitchCancels)
	r.Counter(prefix+"/mem_wait_cycles", &s.MemWaitCycles)
	r.Counter(prefix+"/loads", &s.Loads)
	r.Counter(prefix+"/stores", &s.Stores)
	r.Counter(prefix+"/branch_flushes", &s.BranchFlushes)
	c.switchInterval = r.Histogram(prefix+"/switch_interval_cycles",
		telemetry.Pow2Buckets(8, 12))
	c.sqOccupancy = r.Histogram(prefix+"/sq_occupancy",
		telemetry.LinearBuckets(0, 1, c.cfg.SQEntries+1))
}

// ---- diagnostics & invariants (the hardening layer's window) ----

func stageStr(f *inflight) string {
	if f == nil {
		return "-"
	}
	if f.squashed {
		return "squashed"
	}
	return fmt.Sprintf("{t%d pc=%d %s}", f.thread, f.pc, f.in)
}

// DebugDump renders the core's scheduling and pipeline state for
// diagnostic reports (watchdog dumps, crash errors): the running thread,
// pending-switch state, stage occupancy, and per-thread PC/progress.
func (c *Core) DebugDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cur=t%d live=%d/%d pendingSwitch=%d zeroCommitSwitches=%d fetchQ=%d/%d sq=%d/%d\n",
		c.cur, c.liveThreads(), len(c.threads), c.pendingSwitch, c.zeroCommitSwitches,
		len(c.fetchQ), c.cfg.FetchBufSize, len(c.sq), c.cfg.SQEntries)
	fmt.Fprintf(&b, "stages: dec=%s ex=%s mem=%s wb=%s\n",
		stageStr(c.dec), stageStr(c.ex), stageStr(c.mm), stageStr(c.wb))
	for _, t := range c.threads {
		state := "ready"
		switch {
		case t.Halted:
			state = "halted"
		case t.ID == c.cur:
			state = "running"
		case !t.Started:
			state = "not-started"
		}
		fmt.Fprintf(&b, "t%d: pc=%d %s insts=%d\n", t.ID, t.PC, state, c.Stats.InstsPerThread[t.ID])
	}
	return b.String()
}

// CheckInvariants validates the pipeline's structural bounds — the fetch
// buffer and store queue must never exceed their configured sizes, the
// halted count must agree with the per-thread flags, and the running
// thread must be a real live thread. Returns "" when everything holds.
func (c *Core) CheckInvariants() string {
	if len(c.fetchQ) > c.cfg.FetchBufSize {
		return fmt.Sprintf("fetch buffer holds %d slots, limit %d", len(c.fetchQ), c.cfg.FetchBufSize)
	}
	if len(c.sq) > c.cfg.SQEntries {
		return fmt.Sprintf("store queue holds %d entries, limit %d", len(c.sq), c.cfg.SQEntries)
	}
	halted := 0
	for _, t := range c.threads {
		if t.Halted {
			halted++
		}
	}
	if halted != c.halted {
		return fmt.Sprintf("halted counter %d disagrees with %d halted threads", c.halted, halted)
	}
	if c.cur < -1 || c.cur >= len(c.threads) {
		return fmt.Sprintf("running thread %d out of range", c.cur)
	}
	return c.checkPools()
}

// checkPools verifies the record pools: no record sits in a free list
// twice, and none is both free and in use (latched in a stage, queued in
// the fetch buffer or in the store queue).
func (c *Core) checkPools() string {
	if msg := checkPool("in-flight record", c.freeInflight, c.dec, c.ex, c.mm, c.wb); msg != "" {
		return msg
	}
	if msg := checkPool("fetch slot", c.freeSlots, c.fetchQ...); msg != "" {
		return msg
	}
	if msg := checkPool("store-queue entry", c.freeSQ, c.sq...); msg != "" {
		return msg
	}
	if msg := checkPool[loadReq]("load request", c.freeLoads); msg != "" {
		return msg
	}
	return checkPool[fetchReq]("fetch request", c.freeFetches)
}

func checkPool[E any](what string, free []*E, inUse ...*E) string {
	at := make(map[*E]int, len(free))
	for i, r := range free {
		if j, ok := at[r]; ok {
			return fmt.Sprintf("%s is in its free list twice (entries %d and %d)", what, j, i)
		}
		at[r] = i
	}
	for _, r := range inUse {
		if i, ok := at[r]; ok && r != nil {
			return fmt.Sprintf("%s is in use and in its free list (entry %d)", what, i)
		}
	}
	return ""
}
