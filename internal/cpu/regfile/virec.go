package regfile

import (
	"fmt"
	"sort"
	"strings"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
)

// ViReCConfig parameterizes the ViReC provider.
type ViReCConfig struct {
	// PhysRegs is the physical register file size shared by all threads
	// (the paper sweeps 40%-100% of the aggregate active context).
	PhysRegs int
	// Policy is the tag-store replacement policy (default LRC).
	Policy vrmu.Policy
	// BlockingBSI restricts the backing store interface to one
	// outstanding transaction (ablation; the paper evaluates the
	// non-blocking BSI).
	BlockingBSI bool
	// NoDummyDest disables the destination dummy-value optimization:
	// destination-only registers then wait for a real fill (ablation).
	NoDummyDest bool
	// NoSysregPrefetch disables the system-register ping-pong buffer:
	// every switch then waits for an on-demand system-register load
	// (ablation).
	NoSysregPrefetch bool
	// NoRollback disables the rollback queue's C-bit resets, degrading
	// LRC toward MRT-PLRU with stale commit bits (ablation).
	NoRollback bool
	// RollbackDepth is the rollback queue depth (backend instructions).
	RollbackDepth int

	// GroupEvict enables the paper's future-work group-eviction
	// extension: when a victim is selected, its committed same-line
	// siblings from the same thread are evicted too, so their spills
	// batch onto one backing-store line and subsequent allocations find
	// free slots.
	GroupEvict bool
	// PrefetchNext enables the future-work prefetch-combined-caching
	// extension: on a context switch the round-robin successor's
	// predicted registers (its active set) that are not already resident
	// are prefetched into the register file in the background.
	PrefetchNext bool
}

// ViReC implements the paper's architecture: the physical register file is
// a cache of partial thread contexts managed by a VRMU tag store, with
// spills and fills flowing through the BSI to the dcache backing store,
// and a ping-pong buffer prefetching system registers of the next thread.
type ViReC struct {
	base
	cfg  ViReCConfig
	tags *vrmu.TagStore
	rq   *vrmu.RollbackQueue
	bsi  *bsi

	// sysBsi carries the CSL's system-register ping-pong traffic. It is
	// separate from the register BSI (Figure 7 places the buffer in the
	// fetch stage): its outstanding transactions do not mask context
	// switches, they only gate CanSwitchTo for their own thread.
	sysBsi *bsi

	// pfBsi carries background register prefetches (the PrefetchNext
	// extension); like the sysreg engine it never masks switches, and it
	// yields the dcache port to demand fills.
	pfBsi *bsi

	// prefetchRegs is the per-thread predicted register set used by
	// PrefetchNext (defaults to nothing; the sim layer installs the
	// workload's active context).
	prefetchRegs [][]isa.Reg

	// Oracle state for the Belady policy: per-thread occurrence lists of
	// each register in the thread's recorded access sequence, and a cursor
	// counting committed accesses (each rollback-queue entry carries its
	// instruction's count). Nil under every other policy.
	oracleOcc    []map[isa.Reg][]uint32
	oracleCursor []uint32

	// pending tracks fills in flight: (thread,reg) -> physical slot.
	pending map[regKey]int
	// pendingPhys marks physical slots with fills in flight (never
	// eviction victims); a dense bitmap indexed by physical register.
	pendingPhys []bool
	// superseded marks in-flight fills whose value was overwritten at
	// commit before the fill landed; the fill completes without
	// installing its stale value.
	superseded map[regKey]bool
	// lockedPhys holds the registers of the instruction currently in
	// decode; they are exempt from eviction. Dense bitmap like
	// pendingPhys.
	lockedPhys   []bool
	lockedInst   *isa.Inst
	lockedThread int
	// excluded is the victim-exclusion predicate handed to SelectVictim,
	// built once so the decode hot path allocates nothing. onFill and
	// onSysregs are the BSI completions, bound once for the same reason.
	excluded  func(int) bool
	onFill    func(*bsiOp)
	onSysregs func(*bsiOp)

	// sysBuf is the system-register ping-pong buffer of Section 5.2.
	sysBuf [2]sysSlot

	// Telemetry. tracer is nil when tracing is off; cycle is kept current
	// by StampCycle (fed by the core at the top of its Tick, before any
	// stage calls in) so decode-side events carry the exact emitting
	// cycle, and by Tick as a fallback for providers driven standalone.
	tracer    *telemetry.Tracer
	traceCore int32
	cycle     uint64

	// Stats
	DummyDests       uint64
	CommitReallocs   uint64
	GroupEvictions   uint64
	Prefetches       uint64
	PrefetchHits     uint64 // prefetched registers found resident on demand
	HintSpillsElided uint64 // dirty spills demoted off the critical path by a hint
}

type regKey struct {
	thread int
	reg    isa.Reg
}

type sysSlot struct {
	thread  int
	ready   bool
	loading bool
}

// NewViReC builds the ViReC provider.
func NewViReC(cfg ViReCConfig, threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *ViReC {
	if cfg.PhysRegs < 8 {
		panic(fmt.Sprintf("regfile: ViReC needs >= 8 physical registers, got %d", cfg.PhysRegs))
	}
	if cfg.RollbackDepth == 0 {
		cfg.RollbackDepth = 4
	}
	tags := vrmu.NewTagStore(cfg.PhysRegs, cfg.Policy)
	p := &ViReC{
		base:        newBase(dcache, memory, layout, threads),
		cfg:         cfg,
		tags:        tags,
		rq:          vrmu.NewRollbackQueue(cfg.RollbackDepth, tags),
		bsi:         newBSI(dcache, !cfg.BlockingBSI),
		sysBsi:      newBSI(dcache, true),
		pfBsi:       newBSI(dcache, true),
		pending:     make(map[regKey]int),
		pendingPhys: make([]bool, cfg.PhysRegs),
		superseded:  make(map[regKey]bool),
		lockedPhys:  make([]bool, cfg.PhysRegs),
	}
	p.excluded = func(i int) bool { return p.lockedPhys[i] || p.pendingPhys[i] }
	p.onFill = p.fillDone
	p.onSysregs = p.sysregsDone
	p.sysBuf[0].thread = -1
	p.sysBuf[1].thread = -1
	p.prefetchRegs = make([][]isa.Reg, threads)
	if cfg.Policy == vrmu.Belady {
		p.oracleOcc = make([]map[isa.Reg][]uint32, threads)
		p.oracleCursor = make([]uint32, threads)
		tags.SetOracle(p.oracleDistance)
	}
	return p
}

// SetOracleSeq installs a thread's recorded register access sequence (the
// per-instruction in.Regs order from a functional pre-run) for the Belady
// policy's perfect intra-thread future knowledge.
func (p *ViReC) SetOracleSeq(thread int, seq []isa.Reg) {
	occ := make(map[isa.Reg][]uint32)
	for i, r := range seq {
		if r != isa.XZR {
			occ[r] = append(occ[r], uint32(i))
		}
	}
	p.oracleOcc[thread] = occ
}

// oracleDistance returns how many committed accesses lie between the
// thread's cursor and its next use of reg (max if never used again).
func (p *ViReC) oracleDistance(thread int, reg isa.Reg) uint64 {
	occ := p.oracleOcc[thread]
	if occ == nil {
		return 0
	}
	positions := occ[reg]
	cur := p.oracleCursor[thread]
	// Binary search for the first position >= cursor.
	lo, hi := 0, len(positions)
	for lo < hi {
		mid := (lo + hi) / 2
		if positions[mid] < cur {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(positions) {
		return 0xffffffff // never used again
	}
	return uint64(positions[lo] - cur)
}

// SetPrefetchRegs installs the predicted register set PrefetchNext loads
// for a thread ahead of its scheduling.
func (p *ViReC) SetPrefetchRegs(thread int, regs []isa.Reg) {
	cp := make([]isa.Reg, len(regs))
	copy(cp, regs)
	p.prefetchRegs[thread] = cp
}

var _ cpu.Provider = (*ViReC)(nil)

// SetTelemetry attaches the cycle-level tracer to the provider and its
// three BSI engines. A nil tracer keeps every emit path disabled.
func (p *ViReC) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	p.tracer = tr
	p.traceCore = int32(coreID)
	for _, b := range [...]*bsi{p.bsi, p.sysBsi, p.pfBsi} {
		b.tracer = tr
		b.traceCore = int32(coreID)
	}
}

// StampCycle keeps the provider's event timestamp current. The core calls
// it at the top of its Tick (only while tracing), before any pipeline
// stage reaches the provider, so decode-side events carry the exact
// emitting cycle even though the provider's own Tick runs last.
func (p *ViReC) StampCycle(cycle uint64) { p.cycle = cycle }

// RegisterMetrics wires the provider's counters, the tag store, the BSI
// traffic counters and the fill-latency histogram into a registry under
// prefix (e.g. "rf0"). Counters alias the exported stats fields, so the
// registry reconciles exactly with the experiment tables.
func (p *ViReC) RegisterMetrics(r *telemetry.Registry, prefix string) {
	p.tags.RegisterMetrics(r, prefix+"/vrmu")
	r.Counter(prefix+"/dummy_dests", &p.DummyDests)
	r.Counter(prefix+"/commit_reallocs", &p.CommitReallocs)
	r.Counter(prefix+"/group_evictions", &p.GroupEvictions)
	r.Counter(prefix+"/prefetches", &p.Prefetches)
	r.Counter(prefix+"/prefetch_hits", &p.PrefetchHits)
	r.Counter(prefix+"/hint_spills_elided", &p.HintSpillsElided)
	r.Counter(prefix+"/fills_issued", &p.bsi.FillsIssued)
	r.Counter(prefix+"/spills_issued", &p.bsi.SpillsIssued)
	r.Counter(prefix+"/sysreg_fills", &p.sysBsi.FillsIssued)
	r.Counter(prefix+"/sysreg_spills", &p.sysBsi.SpillsIssued)
	r.Counter(prefix+"/prefetch_fills", &p.pfBsi.FillsIssued)
	p.bsi.fillLat = r.Histogram(prefix+"/fill_latency_cycles",
		telemetry.Pow2Buckets(4, 10))
}

// Tags exposes the tag store for statistics (hit rates, Figure 12).
func (p *ViReC) Tags() *vrmu.TagStore { return p.tags }

// BSI exposes fill/spill counts for reporting.
func (p *ViReC) BSIStats() (fills, spills uint64) {
	return p.bsi.FillsIssued, p.bsi.SpillsIssued
}

// resident reports whether (thread,reg) has a valid value in the RF.
func (p *ViReC) resident(thread int, r isa.Reg) bool {
	if !p.tags.Contains(thread, r) {
		return false
	}
	_, filling := p.pending[regKey{thread, r}]
	return !filling
}

// lockIfPresent adds the physical slot of (thread,reg) to the decode lock
// set.
func (p *ViReC) lockIfPresent(thread int, r isa.Reg) {
	if phys, ok := p.tags.Lookup(thread, r); ok {
		p.lockedPhys[phys] = true
	}
}

// countTrue reports the population of a dense bitmap (diagnostics only).
func countTrue(bits []bool) int {
	n := 0
	for _, b := range bits {
		if b {
			n++
		}
	}
	return n
}

// allocate selects a victim, spills it, and installs (thread,reg) in its
// slot. Returns the physical index, or -1 if no victim is available.
// With GroupEvict, the victim's committed same-line siblings are evicted
// alongside it: their spill writes land in the same (pinned) backing
// line, and the freed slots absorb the next misses without evictions.
func (p *ViReC) allocate(thread int, r isa.Reg) int {
	phys := p.tags.SelectVictim(p.excluded)
	if phys < 0 {
		return -1
	}
	var group []int
	if p.cfg.GroupEvict {
		if e := p.tags.Entry(phys); e.Valid {
			group = p.tags.LineSiblings(e.Thread, e.Reg)
		}
	}
	victim, evicted := p.tags.Insert(thread, r, phys)
	if evicted {
		p.spill(victim)
	}
	if len(group) > 0 {
		for _, sib := range group {
			if p.excluded(sib) {
				continue
			}
			e := p.tags.Entry(sib)
			if !e.Valid || !e.C {
				continue // keep in-flight (to-be-replayed) registers
			}
			if v, ok := p.tags.Evict(sib); ok {
				p.spill(v)
				p.GroupEvictions++
			}
		}
	}
	p.lockedPhys[phys] = true
	return phys
}

// spill writes an evicted register back to the backing store. The value
// lands in functional memory immediately (it must be visible to a
// subsequent fill); the BSI store models the timing and keeps the dcache
// pin counters balanced. Dead threads' registers are dropped with a
// metadata-only write.
func (p *ViReC) spill(v vrmu.Victim) {
	addr := p.layout.RegAddr(v.Thread, v.Reg)
	if !v.Dummy {
		p.memory.Write64(addr, v.Value)
	}
	if p.tracer != nil {
		var dirty uint64
		if v.Dirty {
			dirty = 1
		}
		p.tracer.Emit(p.cycle, telemetry.EvVictim, p.traceCore, int32(v.Thread),
			uint64(v.Reg), dirty, 0)
	}
	// Spill elision, the general form of the dummy-destination case: a
	// dirty value the compiler proved dead (or rematerializable from an
	// immediate) is never worth a critical-path writeback. The functional
	// write above always happens — hints steer timing, never values — but
	// the BSI store is demoted to background traffic.
	crit := v.Dirty
	if crit && (v.Dead || v.Remat) {
		crit = false
		p.HintSpillsElided++
	}
	p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, noCrit: !crit,
		thread: int32(v.Thread), reg: v.Reg})
}

// startFill begins fetching (thread,reg) from the backing store into slot
// phys through BSI engine b.
func (p *ViReC) startFill(b *bsi, thread int, r isa.Reg, phys int) {
	p.pending[regKey{thread, r}] = phys
	p.pendingPhys[phys] = true
	b.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read,
		thread: int32(thread), reg: r, slot: int32(phys), onDone: p.onFill})
}

// fillDone installs a landed fill, unless a commit superseded it or the
// slot was reassigned meanwhile.
func (p *ViReC) fillDone(op *bsiOp) {
	phys := int(op.slot)
	key := regKey{int(op.thread), op.reg}
	p.pendingPhys[phys] = false
	if p.superseded[key] {
		delete(p.superseded, key)
		delete(p.pending, key)
		return
	}
	if cur, ok := p.pending[key]; ok && cur == phys && p.tags.Contains(key.thread, key.reg) {
		p.tags.FillValue(phys, p.memory.Read64(op.addr))
	}
	delete(p.pending, key)
}

// Acquire implements the decode-side register access of Section 5.1: tag
// store lookups for every source and destination, miss handling through
// victim selection, eviction and fill, and the dummy-value optimization
// for destination-only registers.
//
//virec:hotpath
func (p *ViReC) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool {
	if p.rq.Full() {
		return false
	}
	// New instruction at decode: reset the lock set (the previous
	// instruction has dispatched or been squashed).
	if p.lockedInst != in || p.lockedThread != thread {
		p.lockedInst = in
		p.lockedThread = thread
		clear(p.lockedPhys)
		for _, r := range needSrcs {
			if r == isa.XZR {
				continue
			}
			hit := p.resident(thread, r)
			p.tags.CountAccess(hit)
			if hit && p.cfg.PrefetchNext {
				p.PrefetchHits++
			}
			if !hit && p.tracer != nil {
				p.tracer.Emit(p.cycle, telemetry.EvRFMiss, p.traceCore, int32(thread), uint64(r), 0, 0)
			}
			p.lockIfPresent(thread, r)
		}
		var dsts [2]isa.Reg
		for _, d := range in.DstRegs(dsts[:0]) {
			if d != isa.XZR {
				hit := p.tags.Contains(thread, d)
				p.tags.CountAccess(hit)
				if !hit && p.tracer != nil {
					p.tracer.Emit(p.cycle, telemetry.EvRFMiss, p.traceCore, int32(thread), uint64(d), 0, 1)
				}
				p.lockIfPresent(thread, d)
			}
		}
	}

	ready := true
	for _, r := range needSrcs {
		if r == isa.XZR {
			continue
		}
		if p.resident(thread, r) {
			p.lockIfPresent(thread, r)
			continue
		}
		ready = false
		if _, filling := p.pending[regKey{thread, r}]; filling {
			continue // fill already under way
		}
		phys := p.allocate(thread, r)
		if phys < 0 {
			continue // every slot locked/pending; retry next cycle
		}
		p.startFill(p.bsi, thread, r, phys)
	}

	var dstBuf [2]isa.Reg
	for _, d := range in.DstRegs(dstBuf[:0]) {
		if d == isa.XZR {
			continue
		}
		if p.tags.Contains(thread, d) {
			p.lockIfPresent(thread, d)
			// A destination with a fill still in flight (NoDummyDest
			// path) is allocated but not yet writable-consistent; hold
			// the instruction until the fill lands.
			if _, filling := p.pending[regKey{thread, d}]; filling {
				ready = false
			}
			continue
		}
		isSrc := false
		for _, r := range needSrcs {
			if r == d {
				isSrc = true
			}
		}
		if isSrc {
			continue // the source path is already filling it
		}
		phys := p.allocate(thread, d)
		if phys < 0 {
			ready = false
			continue
		}
		if p.cfg.NoDummyDest {
			p.startFill(p.bsi, thread, d, phys)
			ready = false
		} else {
			// Dummy-value optimization: the old value is not needed. A
			// metadata-only read keeps the backing store's pin counters
			// bookkeeping correct without stalling decode.
			p.tags.FillDummy(phys)
			p.DummyDests++
			p.bsi.pushLoad(bsiOp{
				addr:   p.layout.RegAddr(thread, d),
				kind:   mem.Read,
				noCrit: true,
				thread: int32(thread),
				reg:    d,
			})
		}
	}
	return ready
}

// ReadValue returns the cached value after touching the entry (pseudo-LRU
// age reset plus speculative C-bit set).
//
//virec:hotpath
func (p *ViReC) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	phys, ok := p.tags.Lookup(thread, r)
	if !ok {
		// The core only calls ReadValue after Acquire reported the
		// register resident, so a miss here is corruption; sim.Run
		// recovers this panic into a *sim.CrashError carrying a full
		// diagnostic dump.
		panic(fmt.Sprintf("regfile: ReadValue of non-resident %s (thread %d); %s", r, thread, p.DebugState()))
	}
	p.tags.Touch(phys)
	return p.tags.ReadValue(phys)
}

// WriteValue installs a committed result. If the register was evicted
// between decode and commit it is re-allocated (allocate-on-write); if a
// fill is in flight the fill is superseded so its stale value is dropped.
//
//virec:hotpath
func (p *ViReC) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	key := regKey{thread, r}
	if _, filling := p.pending[key]; filling {
		p.superseded[key] = true
		delete(p.pending, key)
	}
	phys, ok := p.tags.Lookup(thread, r)
	if !ok {
		phys = p.allocate(thread, r)
		if phys < 0 {
			// Pathological: every slot locked. Fall back to spilling the
			// value straight to the backing store.
			addr := p.layout.RegAddr(thread, r)
			p.memory.Write64(addr, v)
			p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, thread: int32(thread), reg: r})
			return
		}
		p.CommitReallocs++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read, noCrit: true,
			thread: int32(thread), reg: r})
	}
	p.tags.Touch(phys)
	p.tags.WriteValue(phys, v)
}

// InstDecoded pushes the instruction's record into the rollback queue —
// its physical registers, its register-access count and, under a
// hint-aware policy, its hint marks — and releases the decode locks.
//
//virec:hotpath
func (p *ViReC) InstDecoded(thread int, seq uint64, in *isa.Inst) {
	var regs [6]isa.Reg
	var physBuf [6]int
	phys := physBuf[:0]
	var accesses uint32
	for _, r := range in.Regs(regs[:0]) {
		if r == isa.XZR {
			continue
		}
		accesses++
		idx, ok := p.tags.Lookup(thread, r)
		if !ok {
			continue
		}
		dup := false
		for _, seenIdx := range phys {
			if seenIdx == idx {
				dup = true
				break
			}
		}
		if !dup {
			phys = append(phys, idx)
		}
	}
	e := p.rq.Push(seq, phys, in.IsMem())
	e.Accesses = accesses
	if p.cfg.Policy.HintAware() {
		e.Thread = thread
		e.NDead = uint8(len(in.DeadRegs(e.Dead[:0])))
		if in.Hints&isa.HintRemat != 0 {
			e.Remat = in.Rd
		}
	}
	p.lockedInst = nil
	clear(p.lockedPhys)
}

// InstCommitted retires the oldest rollback-queue entry, which applies the
// instruction's hint marks, and under the Belady policy advances the
// thread's future-knowledge cursor past its register accesses.
//
//virec:hotpath
func (p *ViReC) InstCommitted(thread int, seq uint64) {
	accesses := p.rq.Commit(seq)
	if p.oracleCursor != nil {
		p.oracleCursor[thread] += accesses
	}
}

// PipelineFlushed resets the C bits of all in-flight registers (unless
// the rollback ablation is active, in which case the queue is drained
// without resets). Either way the flushed instructions' access counts and
// hint marks go with their entries: they replay, so their accesses stay
// in the future and their marks are recorded again at the replayed decode.
func (p *ViReC) PipelineFlushed(thread int) {
	if p.cfg.NoRollback {
		p.rq.Drop()
		return
	}
	p.rq.Flush()
}

// sysSlotOf returns the ping-pong slot holding thread, or -1.
func (p *ViReC) sysSlotOf(thread int) int {
	for i := range p.sysBuf {
		if p.sysBuf[i].thread == thread {
			return i
		}
	}
	return -1
}

// loadSysregs begins fetching a thread's system-register line into slot i.
func (p *ViReC) loadSysregs(i, thread int) {
	p.sysBuf[i] = sysSlot{thread: thread, loading: true}
	p.sysBsi.pushLoad(bsiOp{
		addr:   p.layout.SysRegAddr(thread),
		kind:   mem.Read,
		sticky: true,
		thread: int32(thread),
		slot:   int32(i),
		onDone: p.onSysregs,
	})
}

// sysregsDone marks a ping-pong slot ready, unless it was reassigned to
// another thread while the load was in flight.
func (p *ViReC) sysregsDone(op *bsiOp) {
	if s := &p.sysBuf[op.slot]; s.thread == int(op.thread) {
		s.ready = true
		s.loading = false
	}
}

// CanSwitchTo requires the next thread's system registers to be resident
// in the ping-pong buffer; a miss starts the load and stalls the switch.
func (p *ViReC) CanSwitchTo(next int) bool {
	if i := p.sysSlotOf(next); i >= 0 {
		return p.sysBuf[i].ready
	}
	// Not buffered: claim a slot not holding the current thread.
	victim := 0
	cur := p.tags.Current()
	if p.sysBuf[0].thread == cur {
		victim = 1
	}
	if old := p.sysBuf[victim]; old.thread >= 0 && old.ready {
		p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(old.thread), kind: mem.Write,
			noCrit: true, thread: int32(old.thread)})
	}
	p.loadSysregs(victim, next)
	return false
}

// BlockSwitch masks context switches while register transactions are
// outstanding at the BSI, per Section 5.3.
func (p *ViReC) BlockSwitch() bool { return p.bsi.Outstanding() > 0 }

// SkipQuiescent reports whether Tick would be a pure no-op across all
// three BSIs (cpu.SkipSupport).
func (p *ViReC) SkipQuiescent() bool {
	return p.bsi.quiet() && p.sysBsi.quiet() && p.pfBsi.quiet()
}

// PeekCanSwitch previews CanSwitchTo without side effects. A miss in the
// ping-pong buffer would claim a slot and start a sysreg load, so that
// case reports pure=false and forces a normally ticked cycle.
func (p *ViReC) PeekCanSwitch(next int) (ready, pure bool) {
	if i := p.sysSlotOf(next); i >= 0 {
		return p.sysBuf[i].ready, true
	}
	return false, false
}

// PeekAcquire previews a repeated Acquire for the instruction already
// latched in decode. The full-rollback-queue rejection is stateless. Past
// that, a repeated call for the latched instruction only re-runs
// lockIfPresent (idempotent) as long as every needed source and every
// destination is resident with no fill pending; the hit/miss counting and
// lock-set reset happen once, when the instruction is first latched on a
// normally ticked cycle. Any non-resident register would allocate and
// start a fill, so it forces a normally ticked cycle.
func (p *ViReC) PeekAcquire(thread int, in *isa.Inst, needSrcs []isa.Reg) (ready, pure bool) {
	if p.rq.Full() {
		return false, true
	}
	if p.lockedInst != in || p.lockedThread != thread {
		return false, false // first call latches and counts
	}
	for _, r := range needSrcs {
		if r != isa.XZR && !p.resident(thread, r) {
			return false, false
		}
	}
	var dsts [2]isa.Reg
	for _, d := range in.DstRegs(dsts[:0]) {
		if d == isa.XZR {
			continue
		}
		if !p.tags.Contains(thread, d) {
			return false, false
		}
		if _, filling := p.pending[regKey{thread, d}]; filling {
			return false, true // held until the fill lands (BSI busy)
		}
	}
	return true, true
}

// OnSwitch updates the T bits and rotates the system-register ping-pong
// buffer: the previous thread's line is written back and the following
// thread's line is prefetched, overlapping pipeline warmup.
func (p *ViReC) OnSwitch(prev, next int) {
	if prev < 0 {
		p.tags.SetCurrent(next)
	} else {
		p.tags.OnContextSwitch(prev, next)
	}
	if p.cfg.NoSysregPrefetch {
		return
	}
	// Prefetch the round-robin successor into the slot vacated by prev
	// (or any slot not holding next).
	succ := p.nextOf(next)
	if succ < 0 || succ == next || p.sysSlotOf(succ) >= 0 {
		return
	}
	victim := 0
	if p.sysBuf[0].thread == next {
		victim = 1
	}
	if old := p.sysBuf[victim]; old.thread >= 0 && old.thread != next && old.ready {
		p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(old.thread), kind: mem.Write,
			noCrit: true, thread: int32(old.thread)})
	}
	p.loadSysregs(victim, succ)
	if p.cfg.PrefetchNext {
		p.prefetchThread(succ)
	}
}

// prefetchThread pulls the predicted registers of an upcoming thread into
// the register file in the background (the prefetch-combined-caching
// extension). Only registers that are neither resident nor already being
// filled are fetched; the replacement policy protects the running
// thread's registers from being displaced (they hold T=0).
func (p *ViReC) prefetchThread(thread int) {
	for _, r := range p.prefetchRegs[thread] {
		if r == isa.XZR || p.tags.Contains(thread, r) {
			continue
		}
		key := regKey{thread, r}
		if _, filling := p.pending[key]; filling {
			continue
		}
		phys := p.tags.SelectVictim(p.excluded)
		if phys < 0 {
			return
		}
		// Never displace the running thread's registers for a prefetch.
		if e := p.tags.Entry(phys); e.Valid && e.T == 0 {
			return
		}
		victim, evicted := p.tags.Insert(thread, r, phys)
		if evicted {
			p.spill(victim)
		}
		p.Prefetches++
		p.startFill(p.pfBsi, thread, r, phys)
	}
}

// ThreadStarted is a no-op: ViReC fills registers on demand.
func (p *ViReC) ThreadStarted(thread int) {}

// ThreadHalted drops the dead thread's registers. Pin counters in the
// backing store are balanced with metadata-only writes.
func (p *ViReC) ThreadHalted(thread int) {
	p.halted[thread] = true
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		key := regKey{thread, r}
		if phys, filling := p.pending[key]; filling {
			p.superseded[key] = true
			_ = phys
		}
		if p.tags.Contains(thread, r) {
			p.bsi.pushStore(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Write,
				noCrit: true, thread: int32(thread), reg: r})
		}
	}
	p.tags.InvalidateThread(thread)
	if i := p.sysSlotOf(thread); i >= 0 {
		p.sysBuf[i] = sysSlot{thread: -1}
	}
	// Release the sticky pin on the dead thread's system-register line.
	p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Write,
		noCrit: true, unpin: true, thread: int32(thread)})
}

// Tick drives the register BSI and the CSL's system-register engine; the
// register BSI goes first, so fills win the dcache port over sysreg
// prefetches.
func (p *ViReC) Tick(cycle uint64) {
	p.cycle = cycle
	p.bsi.Tick(cycle)
	p.sysBsi.Tick(cycle)
	p.pfBsi.Tick(cycle)
}

// DebugState returns a snapshot of internal queue sizes for diagnostics.
func (p *ViReC) DebugState() string {
	return fmt.Sprintf("pending=%d pendingPhys=%d superseded=%d locked=%d bsiOut=%d loads=%d stores=%d sys=[%+v %+v]",
		len(p.pending), countTrue(p.pendingPhys), len(p.superseded), countTrue(p.lockedPhys),
		p.bsi.outstanding, p.bsi.loads.len(), p.bsi.stores.len(), p.sysBuf[0], p.sysBuf[1])
}

// ---- hardening-layer hooks (diagnostics and invariants) ----

// ResidentLines returns the number of distinct backing-store cache lines
// spanned by the currently resident registers. The hardening layer's
// cross-module invariant compares it against the dcache's pin counters.
func (p *ViReC) ResidentLines() int {
	lines := make(map[mem.Addr]bool)
	for i := 0; i < p.tags.Size(); i++ {
		if e := p.tags.Entry(i); e.Valid {
			lines[p.layout.RegAddr(e.Thread, e.Reg).LineAddr()] = true
		}
	}
	return len(lines)
}

// OutstandingOps returns queued plus in-flight transactions across the
// register, system-register and prefetch BSIs.
func (p *ViReC) OutstandingOps() int {
	return p.bsi.Outstanding() + p.sysBsi.Outstanding() + p.pfBsi.Outstanding()
}

// CheckInvariants validates the provider's internal consistency: the tag
// store's index, the rollback queue's ordering and bounds, and the
// pending-fill bookkeeping (every in-flight fill must mark its physical
// slot busy so it cannot be chosen as an eviction victim, and a resident
// mapping for a filling register must target the filling slot). Returns
// "" when everything holds.
func (p *ViReC) CheckInvariants() string {
	if msg := p.tags.CheckInvariants(); msg != "" {
		return "tag store: " + msg
	}
	if msg := p.rq.CheckInvariants(p.tags.Size()); msg != "" {
		return "rollback queue: " + msg
	}
	// Check pending fills in (thread, reg) order so a multi-violation
	// state always reports the same one.
	pendKeys := make([]regKey, 0, len(p.pending))
	for key := range p.pending {
		pendKeys = append(pendKeys, key)
	}
	sort.Slice(pendKeys, func(i, j int) bool {
		if pendKeys[i].thread != pendKeys[j].thread {
			return pendKeys[i].thread < pendKeys[j].thread
		}
		return pendKeys[i].reg < pendKeys[j].reg
	})
	for _, key := range pendKeys {
		phys := p.pending[key]
		if phys < 0 || phys >= p.tags.Size() {
			return fmt.Sprintf("pending fill t%d %s targets physical register %d outside [0,%d)",
				key.thread, key.reg, phys, p.tags.Size())
		}
		if !p.pendingPhys[phys] {
			return fmt.Sprintf("pending fill t%d %s -> phys %d not marked fill-busy", key.thread, key.reg, phys)
		}
		if idx, ok := p.tags.Lookup(key.thread, key.reg); ok && idx != phys {
			return fmt.Sprintf("pending fill t%d %s targets phys %d but tag store maps it to %d",
				key.thread, key.reg, phys, idx)
		}
	}
	if n := countTrue(p.pendingPhys); n > p.tags.Size() {
		return fmt.Sprintf("%d fill-busy slots exceed %d physical registers", n, p.tags.Size())
	}
	return ""
}

// DiagDump renders the VRMU state for watchdog and crash reports: tag
// residency per thread with the replacement-policy bits, pending fills
// (the non-resident registers stalled threads are waiting on), BSI
// occupancy, rollback-queue depth and the system-register ping-pong
// buffer.
func (p *ViReC) DiagDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vrmu: phys=%d resident=%d policy=%s rollback=%d/%d bsi(out=%d loads=%d stores=%d) sysBsi=%d pfBsi=%d\n",
		p.tags.Size(), p.tags.Occupancy(), p.tags.Policy(), p.rq.Len(), p.rq.Depth(),
		p.bsi.outstanding, p.bsi.loads.len(), p.bsi.stores.len(),
		p.sysBsi.Outstanding(), p.pfBsi.Outstanding())
	byThread := make(map[int][]vrmu.Entry)
	for i := 0; i < p.tags.Size(); i++ {
		if e := p.tags.Entry(i); e.Valid {
			byThread[e.Thread] = append(byThread[e.Thread], e)
		}
	}
	for th := 0; th < p.nThreads; th++ {
		es := byThread[th]
		if len(es) == 0 {
			continue
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Reg < es[j].Reg })
		fmt.Fprintf(&b, "t%d resident:", th)
		for _, e := range es {
			c := 0
			if e.C {
				c = 1
			}
			flags := ""
			if e.Dirty {
				flags += ",dirty"
			}
			if e.Dummy {
				flags += ",dummy"
			}
			if e.Dead {
				flags += ",dead"
			}
			if e.Remat {
				flags += ",remat"
			}
			fmt.Fprintf(&b, " %s(T=%d,C=%d,A=%d%s)", e.Reg, e.T, c, e.A, flags)
		}
		b.WriteByte('\n')
	}
	keys := make([]regKey, 0, len(p.pending))
	for k := range p.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].thread != keys[j].thread {
			return keys[i].thread < keys[j].thread
		}
		return keys[i].reg < keys[j].reg
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "pending fill t%d %s (phys %d, non-resident)\n", k.thread, k.reg, p.pending[k])
	}
	fmt.Fprintf(&b, "sysbuf: [t%d ready=%v loading=%v] [t%d ready=%v loading=%v]\n",
		p.sysBuf[0].thread, p.sysBuf[0].ready, p.sysBuf[0].loading,
		p.sysBuf[1].thread, p.sysBuf[1].ready, p.sysBuf[1].loading)
	return b.String()
}
