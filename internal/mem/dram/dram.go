// Package dram models a DDR5-flavoured main memory: multiple channels,
// banks with open-row state, tRP/tRCD/tCL timing and a shared per-channel
// data bus. It reproduces the two behaviours the ViReC evaluation depends
// on — a realistic idle latency and latency that grows under load
// (Figure 11's system-activity sweep) — without simulating command-level
// DRAM protocol.
//
// All timing is expressed in core cycles (1 GHz in the paper's setup).
package dram

import (
	"fmt"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the memory model. The defaults follow the paper's
// Table 1: DDR5_6400, 1 rank, 2 channels, tRP-tCL-tRCD = 14-14-14.
type Config struct {
	Channels    int // independent channels
	BanksPerCh  int // banks usable in parallel per channel
	RowBytes    int // row-buffer size per bank
	TRP         int // precharge, core cycles
	TRCD        int // activate, core cycles
	TCL         int // CAS latency, core cycles
	TRC         int // row cycle: min time between activates of one bank
	TFAW        int // four-activate window per channel
	TBurst      int // data-bus occupancy per 64B line, core cycles
	CtrlLatency int // controller front-end latency, core cycles
	QueueDepth  int // per-channel request queue entries
	WindowSize  int // how deep FCFS-with-bank-bypass scans the queue
}

// DefaultConfig returns the Table-1 memory configuration.
func DefaultConfig() Config {
	return Config{
		Channels:    2,
		BanksPerCh:  16,
		RowBytes:    8192,
		TRP:         14,
		TRCD:        14,
		TCL:         14,
		TRC:         46,
		TFAW:        20,
		TBurst:      4,
		CtrlLatency: 10,
		QueueDepth:  64,
		WindowSize:  16,
	}
}

// Stats accumulates memory-controller statistics.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // bank closed
	RowConflicts uint64 // wrong row open
	TotalLatency uint64 // sum of read latencies (cycles)
	Rejected     uint64 // accesses refused because a queue was full
}

// AvgReadLatency returns the mean read latency in cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Reads)
}

// RegisterMetrics wires the controller's counters into a telemetry
// registry under prefix (e.g. "dram"). Counters alias the Stats fields.
func (d *DRAM) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &d.Stats
	r.Counter(prefix+"/reads", &s.Reads)
	r.Counter(prefix+"/writes", &s.Writes)
	r.Counter(prefix+"/row_hits", &s.RowHits)
	r.Counter(prefix+"/row_misses", &s.RowMisses)
	r.Counter(prefix+"/row_conflicts", &s.RowConflicts)
	r.Counter(prefix+"/total_read_latency", &s.TotalLatency)
	r.Counter(prefix+"/rejected", &s.Rejected)
	r.Gauge(prefix+"/avg_read_latency", s.AvgReadLatency)
	r.Gauge(prefix+"/queue_occupancy", func() float64 { return float64(d.QueueOccupancy()) })
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil uint64
}

type channel struct {
	queue   []entry
	banks   []bank
	busFree uint64 // first cycle the data bus is free
	// acts holds the last four activate times (tFAW sliding window),
	// initialized far in the past.
	acts [4]int64
}

type entry struct {
	req     *mem.Request
	arrived uint64
}

type completion struct {
	cycle uint64
	seq   uint64 // tie-break for determinism
	req   *mem.Request
	read  bool
	start uint64
}

// completionHeap is a hand-rolled min-heap ordered by (cycle, seq); seq
// is unique so the order is total and pops are deterministic. Monomorphic
// sift routines avoid the per-request interface boxing container/heap
// would add on this hot path.
type completionHeap []completion

func (h completionHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *completionHeap) push(c completion) {
	*h = append(*h, c)
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
func (h *completionHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = completion{} // drop the *mem.Request reference for the GC
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

// DRAM is the memory controller plus channels. It implements mem.Device.
type DRAM struct {
	cfg      Config
	channels []channel
	pending  completionHeap
	seq      uint64
	now      uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New constructs a DRAM from cfg, filling zero fields from DefaultConfig.
func New(cfg Config) *DRAM {
	def := DefaultConfig()
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.BanksPerCh == 0 {
		cfg.BanksPerCh = def.BanksPerCh
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.TRP == 0 {
		cfg.TRP = def.TRP
	}
	if cfg.TRCD == 0 {
		cfg.TRCD = def.TRCD
	}
	if cfg.TCL == 0 {
		cfg.TCL = def.TCL
	}
	if cfg.TRC == 0 {
		cfg.TRC = def.TRC
	}
	if cfg.TFAW == 0 {
		cfg.TFAW = def.TFAW
	}
	if cfg.TBurst == 0 {
		cfg.TBurst = def.TBurst
	}
	if cfg.CtrlLatency == 0 {
		cfg.CtrlLatency = def.CtrlLatency
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = def.WindowSize
	}
	d := &DRAM{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		banks := make([]bank, cfg.BanksPerCh)
		for b := range banks {
			banks[b].openRow = -1
		}
		d.channels[i].banks = banks
		for a := range d.channels[i].acts {
			d.channels[i].acts[a] = -1 << 40
		}
	}
	return d
}

// route maps a line address to (channel, bank, row). Channel bits come
// from the line address so sequential lines interleave across channels.
func (d *DRAM) route(a mem.Addr) (ch, bk int, row int64) {
	line := uint64(a) / mem.LineBytes
	ch = int(line % uint64(d.cfg.Channels))
	line /= uint64(d.cfg.Channels)
	bk = int(line % uint64(d.cfg.BanksPerCh))
	line /= uint64(d.cfg.BanksPerCh)
	linesPerRow := uint64(d.cfg.RowBytes / mem.LineBytes)
	row = int64(line / linesPerRow)
	return ch, bk, row
}

// Access enqueues a request. It returns false when the channel queue is
// full; the caller must retry.
//
//virec:hotpath
func (d *DRAM) Access(r *mem.Request) bool {
	ch, _, _ := d.route(r.Addr)
	c := &d.channels[ch]
	if len(c.queue) >= d.cfg.QueueDepth {
		d.Stats.Rejected++
		return false
	}
	c.queue = append(c.queue, entry{req: r, arrived: d.now})
	return true
}

// Tick advances the controller one core cycle: it retires due completions
// and issues at most one request per channel using FCFS with bank-bypass
// (the first queued request whose bank and bus are available goes next,
// which exposes bank-level parallelism without full FR-FCFS reordering).
//
//virec:hotpath
func (d *DRAM) Tick(cycle uint64) {
	d.now = cycle
	for len(d.pending) > 0 && d.pending[0].cycle <= cycle {
		c := d.pending.pop()
		if c.read {
			d.Stats.TotalLatency += c.cycle - c.start
		}
		c.req.Complete(c.cycle)
	}
	for ci := range d.channels {
		d.issueOne(ci, cycle)
	}
}

func (d *DRAM) issueOne(ci int, cycle uint64) {
	c := &d.channels[ci]
	window := len(c.queue)
	if window > d.cfg.WindowSize {
		window = d.cfg.WindowSize
	}
	for qi := 0; qi < window; qi++ {
		e := &c.queue[qi]
		_, bk, row := d.route(e.req.Addr)
		b := &c.banks[bk]
		if b.busyUntil > cycle || c.busFree > cycle {
			continue
		}
		needsActivate := b.openRow != row
		if needsActivate && c.acts[0]+int64(d.cfg.TFAW) > int64(cycle) {
			// Four-activate window exhausted: no activate this cycle.
			continue
		}
		// Issue this request.
		var access uint64
		activated := false
		switch {
		case b.openRow == row:
			d.Stats.RowHits++
			access = uint64(d.cfg.TCL)
		case b.openRow == -1:
			d.Stats.RowMisses++
			access = uint64(d.cfg.TRCD + d.cfg.TCL)
			activated = true
		default:
			d.Stats.RowConflicts++
			access = uint64(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL)
			activated = true
		}
		if activated {
			copy(c.acts[:3], c.acts[1:])
			c.acts[3] = int64(cycle)
		}
		b.openRow = row
		done := cycle + access + uint64(d.cfg.TBurst)
		b.busyUntil = done
		if activated {
			// The bank cannot re-activate until the row cycle elapses;
			// under row-miss-heavy traffic this is the capacity limit
			// that makes observed latency grow with system load.
			if rc := cycle + uint64(d.cfg.TRC); rc > b.busyUntil {
				b.busyUntil = rc
			}
		}
		c.busFree = cycle + uint64(d.cfg.TBurst)

		read := e.req.Kind == mem.Read
		if read {
			d.Stats.Reads++
		} else {
			d.Stats.Writes++
		}
		d.seq++
		d.pending.push(completion{
			cycle: done + uint64(d.cfg.CtrlLatency),
			seq:   d.seq,
			req:   e.req,
			read:  read,
			start: e.arrived,
		})
		n := qi + copy(c.queue[qi:], c.queue[qi+1:])
		c.queue[n] = entry{}
		c.queue = c.queue[:n]
		return
	}
}

// NextEvent returns the earliest cycle in (now, horizon] at which Tick
// would do real work, assuming no intervening accesses: the next due
// completion, or the first cycle any queued request inside the scheduling
// window clears its bank-busy, bus and tFAW constraints. Those constraints
// only change when an issue happens, so no issue can occur before the
// returned cycle. A drained controller returns horizon. Read-only; now
// must be the last ticked cycle and horizon must exceed now+1.
func (d *DRAM) NextEvent(now, horizon uint64) uint64 {
	ev := horizon
	if len(d.pending) > 0 {
		ev = min(ev, d.pending[0].cycle)
	}
	for ci := range d.channels {
		c := &d.channels[ci]
		window := len(c.queue)
		if window > d.cfg.WindowSize {
			window = d.cfg.WindowSize
		}
		for qi := 0; qi < window; qi++ {
			e := &c.queue[qi]
			_, bk, row := d.route(e.req.Addr)
			b := &c.banks[bk]
			ready := max(b.busyUntil, c.busFree)
			if b.openRow != row {
				if faw := c.acts[0] + int64(d.cfg.TFAW); faw > int64(ready) {
					ready = uint64(faw)
				}
			}
			ev = min(ev, ready)
		}
	}
	return max(ev, now+1)
}

// SkipTo refreshes the controller's clock at last, the final cycle of a
// run NextEvent proved idle: nothing completes or issues, so the tick
// only restamps now for requests accepted at last+1.
func (d *DRAM) SkipTo(last uint64) { d.Tick(last) }

// QueueOccupancy returns the total number of queued (unissued) requests,
// for tests and load monitoring.
func (d *DRAM) QueueOccupancy() int {
	n := 0
	for i := range d.channels {
		n += len(d.channels[i].queue)
	}
	return n
}

// Drain reports whether all queues and in-flight accesses are empty.
func (d *DRAM) Drain() bool {
	return d.QueueOccupancy() == 0 && len(d.pending) == 0
}

// String summarizes the configuration.
func (d *DRAM) String() string {
	return fmt.Sprintf("dram{ch=%d banks=%d tRP/tRCD/tCL=%d/%d/%d}",
		d.cfg.Channels, d.cfg.BanksPerCh, d.cfg.TRP, d.cfg.TRCD, d.cfg.TCL)
}

// UnloadedReadLatency returns the best-case read latency in cycles
// (closed bank): controller + tRCD + tCL + burst.
func (d *DRAM) UnloadedReadLatency() int {
	return d.cfg.CtrlLatency + d.cfg.TRCD + d.cfg.TCL + d.cfg.TBurst
}
