// Package regfile provides the four register-context storage providers
// behind the cpu.Provider interface, corresponding to the processor
// configurations evaluated in the ViReC paper:
//
//   - Banked: one full register bank per hardware thread (the paper's
//     "banked core" baseline). Zero-cost context switches, large area.
//   - Software: a single register bank; contexts are saved and restored
//     through the dcache on every switch (Figure 3a).
//   - ViReC: the paper's contribution — a small physical register file
//     used as a cache for partial contexts, managed by the VRMU with the
//     LRC replacement policy and a backing store interface (Figure 3c).
//   - Prefetch: two banks used as double buffers with full-context or
//     oracle exact-context prefetching (the comparison in Figure 9).
//
// All providers move register state through the same reserved backing
// memory region (cpu.RegLayout) so their traffic is directly comparable.
package regfile

import (
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// base carries the plumbing every provider needs.
type base struct {
	dcache   mem.Device
	memory   *mem.Memory
	layout   cpu.RegLayout
	nThreads int
	halted   []bool
}

func newBase(dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout, nThreads int) base {
	return base{
		dcache:   dcache,
		memory:   memory,
		layout:   layout,
		nThreads: nThreads,
		halted:   make([]bool, nThreads),
	}
}

// nextOf returns the round-robin successor of thread t among live
// threads, or -1 when none remain.
func (b *base) nextOf(t int) int {
	for i := 1; i <= b.nThreads; i++ {
		cand := (t + i) % b.nThreads
		if !b.halted[cand] {
			return cand
		}
	}
	return -1
}

// liveThreads returns the number of unhalted threads.
func (b *base) liveThreads() int {
	n := 0
	for _, h := range b.halted {
		if !h {
			n++
		}
	}
	return n
}

// bsiOp is one register transaction queued at the backing store interface.
// Ops are queued by value.
type bsiOp struct {
	addr   mem.Addr
	kind   mem.Kind
	noCrit bool // metadata-only (dummy-destination bookkeeping)
	sticky bool // sticky-pin the line (system registers)
	unpin  bool // release a sticky pin (thread halt)

	// onDone, if set, runs when the transaction completes. Providers bind
	// their completion methods once and let the op carry the operands; op
	// is only valid for the duration of the call.
	onDone func(op *bsiOp)

	// The (thread, register) the transaction moves, for telemetry and for
	// onDone. thread is -1 for unattributed bookkeeping traffic. slot is
	// the provider's destination for a fill: a physical register, a
	// system-register buffer slot or a bank register.
	thread int32
	reg    isa.Reg
	slot   int32
}

// bsiReq is a pooled dcache request issued for one bsiOp. done is the
// bound onDone, set once when the record is first created.
type bsiReq struct {
	req      mem.Request
	b        *bsi
	op       bsiOp
	issuedAt uint64
	fill     bool // a critical fill whose latency telemetry records
	done     func(uint64)
}

func (r *bsiReq) onDone(cy uint64) {
	b := r.b
	b.outstanding--
	if r.fill {
		b.fillLat.Observe(cy - r.issuedAt)
		if b.tracer != nil {
			b.tracer.Emit(cy, telemetry.EvFillDone, b.traceCore, r.op.thread,
				uint64(r.op.addr), cy-r.issuedAt, uint64(r.op.reg))
		}
	}
	if r.op.onDone != nil {
		r.op.onDone(&r.op)
	}
	b.free = append(b.free, r)
}

// bsi is the backing store interface: it issues register loads and stores
// to the dcache, loads before stores (fills are on the critical path),
// with a configurable issue width. A blocking BSI allows one outstanding
// transaction; the non-blocking BSI pipelines them (Section 5.3).
type bsi struct {
	dcache      mem.Device
	loads       bsiQueue
	stores      bsiQueue
	free        []*bsiReq // request pool, grown lazily
	outstanding int
	nonBlocking bool
	perCycle    int

	// Telemetry (nil when disabled; Emit/Observe are nil-safe).
	tracer    *telemetry.Tracer
	traceCore int32
	fillLat   *telemetry.Histogram

	// Stats
	FillsIssued  uint64
	SpillsIssued uint64
}

func newBSI(dcache mem.Device, nonBlocking bool) *bsi {
	return &bsi{dcache: dcache, nonBlocking: nonBlocking, perCycle: 1}
}

func (b *bsi) pushLoad(op bsiOp)  { b.loads.push(op) }
func (b *bsi) pushStore(op bsiOp) { b.stores.push(op) }

// Outstanding reports queued plus in-flight transactions; the CSL masks
// context switches while it is non-zero.
func (b *bsi) Outstanding() int {
	return b.loads.len() + b.stores.len() + b.outstanding
}

// quiet reports whether Tick would be a pure no-op: nothing is queued for
// issue. In-flight transactions (outstanding > 0) complete through dcache
// callbacks and need no BSI ticks, so they do not block clock skip-ahead.
func (b *bsi) quiet() bool { return b.loads.len() == 0 && b.stores.len() == 0 }

// bsiQueue is a FIFO of bsiOps. Pops advance a head index, and the live
// window ops[head:] is copied down only once head passes half the slice,
// so a pop costs O(1) amortized at any depth: the full-context prefetch
// provider queues over 100,000 ops. Every slot outside the live window is
// zero, so a popped op's onDone is not kept alive.
type bsiQueue struct {
	ops  []bsiOp
	head int
}

func (q *bsiQueue) push(op bsiOp) { q.ops = append(q.ops, op) }

func (q *bsiQueue) len() int { return len(q.ops) - q.head }

// front returns the oldest op; the queue must be non-empty.
func (q *bsiQueue) front() *bsiOp { return &q.ops[q.head] }

// pop drops the oldest op; the queue must be non-empty.
func (q *bsiQueue) pop() {
	q.ops[q.head] = bsiOp{}
	q.head++
	if q.head*2 > len(q.ops) {
		n := copy(q.ops, q.ops[q.head:])
		clear(q.ops[n:])
		q.ops, q.head = q.ops[:n], 0
	}
}

// Tick issues queued transactions to the dcache, loads first.
//
//virec:hotpath
func (b *bsi) Tick(cycle uint64) {
	issued := 0
	for issued < b.perCycle {
		if !b.nonBlocking && b.outstanding > 0 {
			return
		}
		q := &b.loads
		if q.len() == 0 {
			q = &b.stores
		}
		if q.len() == 0 {
			return
		}
		fromLoads := q == &b.loads
		r := b.newReq()
		r.op = *q.front()
		op := &r.op
		r.req = mem.Request{
			Addr:         op.addr,
			Size:         8,
			Kind:         op.kind,
			RegisterFill: true,
			NoCritical:   op.noCrit,
			PinSticky:    op.sticky,
			Unpin:        op.unpin,
			Done:         r.done,
		}
		r.issuedAt = cycle
		r.fill = fromLoads && !op.noCrit && (b.fillLat != nil || b.tracer != nil)
		if !b.dcache.Access(&r.req) {
			b.free = append(b.free, r)
			return // dcache port busy (LSQ has priority); retry next cycle
		}
		b.outstanding++
		q.pop()
		if fromLoads {
			b.FillsIssued++
			if b.tracer != nil {
				b.tracer.Emit(cycle, telemetry.EvFill, b.traceCore, op.thread,
					uint64(op.addr), uint64(op.reg), 0)
			}
		} else {
			b.SpillsIssued++
			if b.tracer != nil {
				b.tracer.Emit(cycle, telemetry.EvSpill, b.traceCore, op.thread,
					uint64(op.addr), uint64(op.reg), 0)
			}
		}
		issued++
	}
}

func (b *bsi) newReq() *bsiReq {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	//virec:alloc-ok pool growth, bounded by the transactions in flight
	r := &bsiReq{b: b}
	r.done = r.onDone
	return r
}
