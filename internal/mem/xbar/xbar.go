// Package xbar models the system crossbar that connects near-memory
// processors to the memory controller. It adds a fixed traversal latency
// in each direction and enforces a per-cycle bandwidth limit; under high
// system activity (Figure 11) the shared link becomes a contention point
// alongside the DRAM banks.
package xbar

import (
	"container/heap"

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

type event struct {
	cycle uint64
	seq   uint64
	req   *mem.Request
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
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
func (x *Xbar) Access(r *mem.Request) bool {
	if len(x.inQ)+len(x.ready) >= x.cfg.QueueDepth {
		x.Stats.Rejected++
		return false
	}
	x.seq++
	heap.Push(&x.inQ, event{cycle: x.now + uint64(x.cfg.Latency), seq: x.seq, req: r})
	if q := len(x.inQ) + len(x.ready); q > x.Stats.MaxQueue {
		x.Stats.MaxQueue = q
	}
	return true
}

// Tick moves arrived requests to the controller (bounded per cycle) and
// delivers delayed responses.
func (x *Xbar) Tick(cycle uint64) {
	x.now = cycle
	for len(x.respQ) > 0 && x.respQ[0].cycle <= cycle {
		ev := heap.Pop(&x.respQ).(event)
		ev.req.Complete(ev.cycle)
	}
	for len(x.inQ) > 0 && x.inQ[0].cycle <= cycle {
		ev := heap.Pop(&x.inQ).(event)
		x.ready = append(x.ready, ev.req)
	}
	forwarded := 0
	for len(x.ready) > 0 && forwarded < x.cfg.PerCycle {
		r := x.ready[0]
		wrapped := *r
		orig := r.Done
		wrapped.Done = func(c uint64) {
			if orig == nil {
				return
			}
			x.seq++
			heap.Push(&x.respQ, event{cycle: c + uint64(x.cfg.Latency), seq: x.seq,
				req: &mem.Request{Done: orig}})
		}
		if !x.below.Access(&wrapped) {
			break
		}
		x.ready = x.ready[1:]
		forwarded++
		x.Stats.Forwarded++
	}
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
