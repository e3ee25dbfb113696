// Package xbar models the system crossbar that connects near-memory
// processors to the memory controller. It adds a fixed traversal latency
// in each direction and enforces a per-cycle bandwidth limit; under high
// system activity (Figure 11) the shared link becomes a contention point
// alongside the DRAM banks.
package xbar

import (
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the crossbar.
type Config struct {
	Latency    int // one-way traversal cycles
	PerCycle   int // requests forwarded to the memory controller per cycle
	QueueDepth int // buffered requests before back-pressure
}

// DefaultConfig returns the crossbar used by the evaluation: a short
// on-die interconnect between the near-memory cores and the controller.
func DefaultConfig() Config {
	return Config{Latency: 6, PerCycle: 2, QueueDepth: 64}
}

// Stats accumulates crossbar statistics.
type Stats struct {
	Forwarded uint64
	Rejected  uint64
	MaxQueue  int
}

// RegisterMetrics wires the crossbar's counters into a telemetry registry
// under prefix (e.g. "xbar"). Counters alias the Stats fields.
func (x *Xbar) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &x.Stats
	r.Counter(prefix+"/forwarded", &s.Forwarded)
	r.Counter(prefix+"/rejected", &s.Rejected)
	r.Gauge(prefix+"/max_queue", func() float64 { return float64(s.MaxQueue) })
}

// event is one traversal in flight: a request toward the controller
// (req) or a response on its way back to the requester (done, the
// original request's completion).
type event struct {
	cycle uint64
	seq   uint64
	req   *mem.Request
	done  func(uint64)
}

// eventHeap is a hand-rolled min-heap ordered by (cycle, seq), like the
// cache's and DRAM's: container/heap would box every push and pop.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//virec:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the references for the GC
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// fwdReq is the pooled copy of a request forwarded to the controller. Its
// Done (onDone, bound once when the record is first created) queues the
// original completion on the response path.
type fwdReq struct {
	req  mem.Request
	x    *Xbar
	orig func(uint64)
	done func(uint64)
}

func (f *fwdReq) onDone(c uint64) {
	x := f.x
	if f.orig != nil {
		x.seq++
		x.respQ.push(event{cycle: c + uint64(x.cfg.Latency), seq: x.seq, done: f.orig})
	}
	f.orig = nil
	x.free = append(x.free, f)
}

// Xbar forwards requests to a lower-level device after its traversal
// latency, and delays responses by the same latency on the way back.
// It implements mem.Device.
type Xbar struct {
	cfg   Config
	below mem.Device
	inQ   eventHeap      // requests in flight toward the controller
	respQ eventHeap      // responses in flight back to the cores
	ready []*mem.Request // arrived, awaiting forwarding bandwidth
	free  []*fwdReq      // forwarded-copy pool, grown lazily
	seq   uint64
	now   uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New builds a crossbar over the lower-level device.
func New(cfg Config, below mem.Device) *Xbar {
	def := DefaultConfig()
	if cfg.Latency == 0 {
		cfg.Latency = def.Latency
	}
	if cfg.PerCycle == 0 {
		cfg.PerCycle = def.PerCycle
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	return &Xbar{cfg: cfg, below: below}
}

// Access accepts a request for traversal. Returns false under
// back-pressure (full queue).
//
//virec:hotpath
func (x *Xbar) Access(r *mem.Request) bool {
	if len(x.inQ)+len(x.ready) >= x.cfg.QueueDepth {
		x.Stats.Rejected++
		return false
	}
	x.seq++
	x.inQ.push(event{cycle: x.now + uint64(x.cfg.Latency), seq: x.seq, req: r})
	if q := len(x.inQ) + len(x.ready); q > x.Stats.MaxQueue {
		x.Stats.MaxQueue = q
	}
	return true
}

// Tick moves arrived requests to the controller (bounded per cycle) and
// delivers delayed responses.
//
//virec:hotpath
func (x *Xbar) Tick(cycle uint64) {
	x.now = cycle
	for len(x.respQ) > 0 && x.respQ[0].cycle <= cycle {
		ev := x.respQ.pop()
		ev.done(ev.cycle)
	}
	for len(x.inQ) > 0 && x.inQ[0].cycle <= cycle {
		ev := x.inQ.pop()
		x.ready = append(x.ready, ev.req)
	}
	forwarded := 0
	for len(x.ready) > 0 && forwarded < x.cfg.PerCycle {
		r := x.ready[0]
		f := x.newFwd()
		f.req, f.orig = *r, r.Done
		f.req.Done = f.done
		if !x.below.Access(&f.req) {
			f.orig = nil
			x.free = append(x.free, f)
			break
		}
		n := copy(x.ready, x.ready[1:])
		x.ready[n] = nil
		x.ready = x.ready[:n]
		forwarded++
		x.Stats.Forwarded++
	}
}

func (x *Xbar) newFwd() *fwdReq {
	if n := len(x.free); n > 0 {
		f := x.free[n-1]
		x.free = x.free[:n-1]
		return f
	}
	//virec:alloc-ok pool growth, bounded by the requests in flight below
	f := &fwdReq{x: x}
	f.done = f.onDone
	return f
}

// NextEvent returns the earliest cycle in (now, horizon] at which Tick
// would do real work, assuming no intervening accesses: arrived requests
// awaiting forwarding bandwidth retry every cycle; otherwise the earliest
// in-flight traversal (either direction) matures. An idle crossbar
// returns horizon. Read-only; now must be the last ticked cycle and
// horizon must exceed now+1.
func (x *Xbar) NextEvent(now, horizon uint64) uint64 {
	if len(x.ready) > 0 {
		return now + 1
	}
	ev := horizon
	if len(x.inQ) > 0 {
		ev = min(ev, x.inQ[0].cycle)
	}
	if len(x.respQ) > 0 {
		ev = min(ev, x.respQ[0].cycle)
	}
	return max(ev, now+1)
}

// SkipTo refreshes the crossbar's clock at last, the final cycle of a run
// NextEvent proved idle: nothing matures, so the tick only restamps now
// for requests accepted at last+1.
func (x *Xbar) SkipTo(last uint64) { x.Tick(last) }

// Idle reports whether nothing is in flight through the crossbar.
func (x *Xbar) Idle() bool {
	return len(x.inQ) == 0 && len(x.respQ) == 0 && len(x.ready) == 0
}
