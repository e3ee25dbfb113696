// Package cache models a set-associative write-back cache with MSHRs and
// a bounded access port, plus the ViReC backing-store extensions from
// Section 5.3 of the paper: cache lines are tagged as register or data
// lines, register lines carry a 3-bit pin counter that prevents their
// eviction while registers from the line are alive in the register file,
// and load misses to *data* addresses raise a miss signal that the context
// switching logic uses to trigger a thread switch. Misses to the reserved
// register region never raise the signal.
package cache

import (
	"fmt"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes a cache instance.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency int // cycles from access to data for a hit
	MSHRs      int // outstanding line fills
	Ports      int // accesses accepted per cycle

	// RegRegionBase/RegRegionSize delimit the reserved register region.
	// Requests with RegisterFill set must target this region; misses
	// inside it never raise the miss signal. Zero size disables pinning.
	RegRegionBase mem.Addr
	RegRegionSize uint64

	// PinningDisabled turns off register-line pinning (an ablation from
	// DESIGN.md): register lines become ordinary evictable lines.
	PinningDisabled bool
}

// Stats accumulates cache statistics.
type Stats struct {
	Hits         uint64
	Misses       uint64
	MergedMisses uint64 // secondary misses merged into an MSHR
	Writebacks   uint64
	Fills        uint64
	PortRejects  uint64
	MSHRRejects  uint64
	PinnedEvicts uint64 // pinned register lines sacrificed for data misses
	RegReads     uint64 // register-region reads (fills into the RF)
	RegWrites    uint64 // register-region writes (spills out of the RF)
	DataLoadMiss uint64 // misses that raised the context-switch signal
}

// HitRate returns hits / (hits+misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses + s.MergedMisses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

const maxPin = 7 // 3-bit pin counter, saturating

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	isReg   bool  // register/data bit
	pin     uint8 // 3-bit pin counter
	sticky  bool  // pinned until an explicit Unpin (system registers)
	lastUse uint64
}

// mshr tracks one outstanding line fill. MSHRs are pooled per cache: the
// record owns its fill request, whose Done (fillDone) is bound once when
// the record is first created, and returns to the pool once the fill has
// landed.
type mshr struct {
	c           *Cache
	lineAddr    mem.Addr
	set         int
	issued      bool
	waiting     []*mem.Request
	dirtyOnFill bool // a merged write marks the line dirty when it lands
	fill        mem.Request
	done        func(uint64)
}

type hitEvent struct {
	cycle uint64
	seq   uint64
	req   *mem.Request
}

// hitHeap is a hand-rolled min-heap ordered by (cycle, seq). The stdlib
// container/heap boxes every element into an interface value, which puts
// one allocation on every cache hit — the single hottest event in the
// simulator — so the sift routines are monomorphic here instead.
type hitHeap []hitEvent

func (h hitHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *hitHeap) push(ev hitEvent) {
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
func (h *hitHeap) pop() hitEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = hitEvent{} // drop the *mem.Request reference for the GC
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

// Cache is a set-associative write-back cache. It implements mem.Device.
type Cache struct {
	cfg     Config
	sets    [][]line
	numSets int
	mshrs   map[mem.Addr]*mshr
	free    []*mshr // MSHR pool, grown lazily
	below   mem.Device

	pendingHits hitHeap
	writebackQ  []*mem.Request // retried when below rejects
	fillRetryQ  []*mshr        // fills the lower level rejected
	seq         uint64
	useClock    uint64
	acceptedNow int
	now         uint64

	// pinnedNow is a running count of valid pinned lines, maintained at
	// the pin-transition sites so telemetry and invariants never need the
	// full-array scan PinnedLines() does.
	pinnedNow int

	// Telemetry (nil when disabled; Emit/Observe are nil-safe).
	tracer     *telemetry.Tracer
	traceCore  int32
	pinnedHist *telemetry.Histogram

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New builds a cache over the given lower-level device.
func New(cfg Config, below mem.Device) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	numLines := cfg.SizeBytes / mem.LineBytes
	numSets := numLines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
		cfg.Assoc = numLines
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		numSets: numSets,
		mshrs:   make(map[mem.Addr]*mshr),
		below:   below,
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(a mem.Addr) (set int, tag uint64) {
	lineNum := uint64(a) / mem.LineBytes
	return int(lineNum % uint64(c.numSets)), lineNum / uint64(c.numSets)
}

// inRegRegion reports whether a falls in the reserved register region.
func (c *Cache) inRegRegion(a mem.Addr) bool {
	return c.cfg.RegRegionSize > 0 &&
		a >= c.cfg.RegRegionBase &&
		uint64(a-c.cfg.RegRegionBase) < c.cfg.RegRegionSize
}

// Access presents a request to the cache. It returns false if the port is
// saturated this cycle, no MSHR is free for a miss, or every way in the
// target set is pinned or filling.
//
//virec:hotpath
func (c *Cache) Access(r *mem.Request) bool {
	if c.acceptedNow >= c.cfg.Ports {
		c.Stats.PortRejects++
		return false
	}
	la := r.Addr.LineAddr()
	set, tag := c.index(r.Addr)

	// Hit?
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.valid && ln.tag == tag {
			c.acceptedNow++
			c.useClock++
			ln.lastUse = c.useClock
			if r.Kind == mem.Write {
				ln.dirty = true
			}
			c.touchRegLine(ln, r)
			c.Stats.Hits++
			c.seq++
			c.pendingHits.push(hitEvent{
				cycle: c.now + uint64(c.cfg.HitLatency),
				seq:   c.seq,
				req:   r,
			})
			return true
		}
	}

	// Merged miss?
	if m, ok := c.mshrs[la]; ok {
		c.acceptedNow++
		c.Stats.MergedMisses++
		if r.Kind == mem.Write {
			m.dirtyOnFill = true
		}
		m.waiting = append(m.waiting, r)
		c.signalMiss(r)
		return true
	}

	// Primary miss: allocate an MSHR; the victim way is chosen when the
	// fill returns, so in-flight fills never block a set.
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.Stats.MSHRRejects++
		return false
	}
	c.acceptedNow++
	c.Stats.Misses++
	c.signalMiss(r)

	m := c.newMSHR()
	m.lineAddr, m.set, m.issued = la, set, false
	m.waiting = append(m.waiting[:0], r)
	m.dirtyOnFill = r.Kind == mem.Write
	c.mshrs[la] = m
	c.issueFill(m)
	if !m.issued {
		c.fillRetryQ = append(c.fillRetryQ, m)
	}
	return true
}

// touchRegLine maintains the register/data bit and the pin counter.
func (c *Cache) touchRegLine(ln *line, r *mem.Request) {
	if !c.inRegRegion(r.Addr) {
		return
	}
	ln.isReg = true
	if r.Kind == mem.Read {
		c.Stats.RegReads++
	} else {
		c.Stats.RegWrites++
	}
	if c.cfg.PinningDisabled {
		return
	}
	wasPinned := ln.pin > 0 || ln.sticky
	if r.Unpin {
		ln.sticky = false
		ln.pin = 0
	} else {
		if r.PinSticky {
			ln.sticky = true
		}
		if r.Kind == mem.Read {
			if ln.pin < maxPin {
				ln.pin++
			}
		} else if ln.pin > 0 {
			ln.pin--
		}
	}
	c.pinTransition(ln, wasPinned, r.Addr.LineAddr())
}

// pinTransition updates the running pinned-line count and emits the
// pin/unpin trace events when a line crosses the pinned boundary.
func (c *Cache) pinTransition(ln *line, wasPinned bool, la mem.Addr) {
	nowPinned := ln.pin > 0 || ln.sticky
	if wasPinned == nowPinned {
		return
	}
	if nowPinned {
		c.pinnedNow++
		if c.tracer != nil {
			c.tracer.Emit(c.now, telemetry.EvPin, c.traceCore, telemetry.NoThread, uint64(la), 0, 0)
		}
	} else {
		c.pinnedNow--
		if c.tracer != nil {
			c.tracer.Emit(c.now, telemetry.EvUnpin, c.traceCore, telemetry.NoThread, uint64(la), 0, 0)
		}
	}
	c.pinnedHist.Observe(uint64(c.pinnedNow))
}

// signalMiss raises the context-switch signal for data load misses.
func (c *Cache) signalMiss(r *mem.Request) {
	if r.Kind != mem.Read || r.RegisterFill || r.Inst {
		return
	}
	if c.inRegRegion(r.Addr) {
		return
	}
	c.Stats.DataLoadMiss++
	if r.Miss != nil {
		r.Miss(c.now + uint64(c.cfg.HitLatency))
	}
}

// victim picks the LRU way among evictable lines. Pinned register lines
// are skipped while any unpinned way exists, but when a set fills up with
// pinned lines the LRU pinned line is sacrificed anyway — pinning
// accelerates register traffic, it must never starve data accesses.
func (c *Cache) victim(set int) int {
	best, bestPinned := -1, -1
	var bestUse, bestPinnedUse uint64
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if !ln.valid {
			return w
		}
		if ln.pin > 0 || ln.sticky {
			if bestPinned < 0 || ln.lastUse < bestPinnedUse {
				bestPinned, bestPinnedUse = w, ln.lastUse
			}
			continue
		}
		if best < 0 || ln.lastUse < bestUse {
			best, bestUse = w, ln.lastUse
		}
	}
	if best >= 0 {
		return best
	}
	if bestPinned >= 0 {
		c.Stats.PinnedEvicts++
		return bestPinned
	}
	return -1
}

func (c *Cache) lineAddrOf(set int, tag uint64) mem.Addr {
	return mem.Addr((tag*uint64(c.numSets) + uint64(set)) * mem.LineBytes)
}

func (c *Cache) newMSHR() *mshr {
	if n := len(c.free); n > 0 {
		m := c.free[n-1]
		c.free = c.free[:n-1]
		return m
	}
	//virec:alloc-ok pool growth, bounded by the MSHR count
	m := &mshr{c: c}
	m.done = m.fillDone
	return m
}

func (c *Cache) issueFill(m *mshr) {
	if m.issued {
		return
	}
	m.fill = mem.Request{
		Addr: m.lineAddr,
		Size: mem.LineBytes,
		Kind: mem.Read,
		Done: m.done,
	}
	// Preserve routing hints from the first waiter so lower levels can
	// classify traffic.
	if len(m.waiting) > 0 {
		m.fill.Inst = m.waiting[0].Inst
		m.fill.RegisterFill = m.waiting[0].RegisterFill
	}
	if c.below.Access(&m.fill) {
		m.issued = true
	}
}

func (m *mshr) fillDone(cycle uint64) {
	c := m.c
	c.Stats.Fills++
	way := c.victim(m.set)
	// victim always finds a way: invalid first, then LRU unpinned, then a
	// sacrificed pinned line.
	ln := &c.sets[m.set][way]
	if ln.valid && ln.dirty {
		c.Stats.Writebacks++
		c.writebackQ = append(c.writebackQ, &mem.Request{
			Addr: c.lineAddrOf(m.set, ln.tag),
			Size: mem.LineBytes,
			Kind: mem.Write,
		})
	}
	if ln.valid && (ln.pin > 0 || ln.sticky) {
		// A pinned line sacrificed for this fill leaves the pinned set.
		c.pinnedNow--
		if c.tracer != nil {
			c.tracer.Emit(cycle, telemetry.EvUnpin, c.traceCore, telemetry.NoThread,
				uint64(c.lineAddrOf(m.set, ln.tag)), 0, 0)
		}
		c.pinnedHist.Observe(uint64(c.pinnedNow))
	}
	_, tag := c.index(m.lineAddr)
	c.useClock++
	*ln = line{tag: tag, valid: true, dirty: m.dirtyOnFill, lastUse: c.useClock}
	for _, r := range m.waiting {
		c.touchRegLine(ln, r)
		r.Complete(cycle)
	}
	delete(c.mshrs, m.lineAddr)
	clear(m.waiting)
	c.free = append(c.free, m)
}

// Tick retires due hits, retries unissued fills and drains the writeback
// queue. It must be called once per cycle before the lower level's Tick.
//
//virec:hotpath
func (c *Cache) Tick(cycle uint64) {
	c.now = cycle
	c.acceptedNow = 0
	for len(c.pendingHits) > 0 && c.pendingHits[0].cycle <= cycle {
		ev := c.pendingHits.pop()
		ev.req.Complete(ev.cycle)
	}
	if len(c.fillRetryQ) > 0 {
		remaining := c.fillRetryQ[:0]
		for _, m := range c.fillRetryQ {
			if !m.issued {
				c.issueFill(m)
			}
			if !m.issued {
				remaining = append(remaining, m)
			}
		}
		c.fillRetryQ = remaining
	}
	for len(c.writebackQ) > 0 {
		if !c.below.Access(c.writebackQ[0]) {
			break
		}
		n := copy(c.writebackQ, c.writebackQ[1:])
		c.writebackQ[n] = nil
		c.writebackQ = c.writebackQ[:n]
	}
}

// NextEvent returns the earliest cycle in (now, horizon] at which Tick
// would do real work, assuming no intervening accesses: a queued fill
// retry or writeback needs every cycle, otherwise the next due hit
// completion is the deadline. A passive cache returns horizon — any issued
// line fills complete through the lower level's own events. Read-only;
// now must be the last ticked cycle and horizon must exceed now+1.
func (c *Cache) NextEvent(now, horizon uint64) uint64 {
	if len(c.fillRetryQ) > 0 || len(c.writebackQ) > 0 {
		return now + 1
	}
	if len(c.pendingHits) > 0 {
		return min(max(c.pendingHits[0].cycle, now+1), horizon)
	}
	return horizon
}

// SkipTo refreshes the cache's clock at last, the final cycle of a run
// NextEvent proved idle: no hit is due and no queue is waiting, so the
// tick only restamps now and the port budget for accesses at last+1.
func (c *Cache) SkipTo(last uint64) { c.Tick(last) }

// PinnedLines returns the number of currently pinned lines (tests, stats).
func (c *Cache) PinnedLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if ln.valid && (ln.pin > 0 || ln.sticky) {
				n++
			}
		}
	}
	return n
}

// PinnedGeneralRegLines returns the number of valid lines held by the
// per-register pin counter alone (sticky system-register lines are
// excluded). The hardening layer's cross-module invariant bounds this
// count by the VRMU's resident lines plus outstanding BSI transactions.
func (c *Cache) PinnedGeneralRegLines() int {
	n := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if ln.valid && ln.pin > 0 && !ln.sticky {
				n++
			}
		}
	}
	return n
}

// MSHRsInUse returns the number of allocated MSHRs (diagnostics).
func (c *Cache) MSHRsInUse() int { return len(c.mshrs) }

// SetTelemetry attaches the cycle-level tracer (pin/unpin events).
func (c *Cache) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	c.tracer = tr
	c.traceCore = int32(coreID)
}

// RegisterMetrics wires the cache's counters, occupancy gauges and the
// pinned-line histogram into a registry under prefix (e.g. "dcache0").
func (c *Cache) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &c.Stats
	r.Counter(prefix+"/hits", &s.Hits)
	r.Counter(prefix+"/misses", &s.Misses)
	r.Counter(prefix+"/merged_misses", &s.MergedMisses)
	r.Counter(prefix+"/writebacks", &s.Writebacks)
	r.Counter(prefix+"/fills", &s.Fills)
	r.Counter(prefix+"/port_rejects", &s.PortRejects)
	r.Counter(prefix+"/mshr_rejects", &s.MSHRRejects)
	r.Counter(prefix+"/pinned_evicts", &s.PinnedEvicts)
	r.Counter(prefix+"/reg_reads", &s.RegReads)
	r.Counter(prefix+"/reg_writes", &s.RegWrites)
	r.Counter(prefix+"/data_load_miss", &s.DataLoadMiss)
	r.Gauge(prefix+"/pinned_lines", func() float64 { return float64(c.PinnedLines()) })
	r.Gauge(prefix+"/mshrs_in_use", func() float64 { return float64(len(c.mshrs)) })
	c.pinnedHist = r.Histogram(prefix+"/pinned_lines_hist",
		telemetry.LinearBuckets(0, 4, 16))
}

// CheckInvariants validates internal consistency; tests call it after
// workloads run. It returns a descriptive error string or "".
func (c *Cache) CheckInvariants() string {
	if len(c.mshrs) > c.cfg.MSHRs {
		return fmt.Sprintf("%d MSHRs in use, limit %d", len(c.mshrs), c.cfg.MSHRs)
	}
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if ln.pin > maxPin {
				return fmt.Sprintf("set %d way %d pin %d > max", s, w, ln.pin)
			}
			if (ln.pin > 0 || ln.sticky) && !ln.isReg {
				return fmt.Sprintf("set %d way %d pinned but not a register line", s, w)
			}
			if (ln.pin > 0 || ln.sticky) && c.cfg.PinningDisabled {
				return fmt.Sprintf("set %d way %d pinned with pinning disabled", s, w)
			}
		}
	}
	if n := c.PinnedLines(); n != c.pinnedNow {
		return fmt.Sprintf("running pinned-line count %d disagrees with %d pinned lines", c.pinnedNow, n)
	}
	return ""
}

// Idle reports whether no hits, fills or writebacks are outstanding.
func (c *Cache) Idle() bool {
	return len(c.pendingHits) == 0 && len(c.mshrs) == 0 && len(c.writebackQ) == 0
}
