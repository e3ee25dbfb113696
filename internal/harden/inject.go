package harden

import (
	"container/heap"
	"fmt"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/telemetry"
)

// InjectStats counts the perturbations an injector applied.
type InjectStats struct {
	Jittered     uint64 // completions delayed
	JitterCycles uint64 // total extra cycles added
	BusyBursts   uint64 // port-busy windows opened
	BusyRejects  uint64 // accesses rejected inside busy windows
	Storms       uint64 // eviction storms fired
	StormFetches uint64 // conflicting line fetches the cache accepted
	BlockedFills uint64 // register fills rejected by BlockRegisterFills
}

// RegisterMetrics wires the injector's perturbation counters into a
// telemetry registry under prefix (e.g. "inject0").
func (inj *Injector) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &inj.Stats
	r.Counter(prefix+"/jittered", &s.Jittered)
	r.Counter(prefix+"/jitter_cycles", &s.JitterCycles)
	r.Counter(prefix+"/busy_bursts", &s.BusyBursts)
	r.Counter(prefix+"/busy_rejects", &s.BusyRejects)
	r.Counter(prefix+"/storms", &s.Storms)
	r.Counter(prefix+"/storm_fetches", &s.StormFetches)
	r.Counter(prefix+"/blocked_fills", &s.BlockedFills)
}

// Injector sits between a core (pipeline, store queue and register
// provider) and its dcache, implementing mem.Device. It perturbs timing
// only: accesses may be rejected for a bounded number of cycles (every
// caller in the simulator retries), completions may be delayed, and
// extra conflicting fetches may be injected into the cache — but no
// request is ever dropped or reordered against its own dependencies, and
// no architectural state is touched. Two injectors with the same seed,
// plan and request stream behave identically.
type Injector struct {
	plan   FaultPlan
	rng    uint64
	target *cache.Cache

	numSets  int
	regSets  []int  // cache sets covered by the reserved register region
	stormTag uint64 // base tag for storm addresses, clear of real regions
	now      uint64
	busyTill uint64 // accesses rejected while now < busyTill
	delayed  evHeap // completions held back for jitter
	seq      uint64

	// Stats is exported read-only for reporting.
	Stats InjectStats
}

// stormRegion is the base of the address range storm fetches target. It
// sits above every architectural region the simulator allocates (data
// slabs, reserved register regions, program text).
const stormRegion = 0xC000_0000

// NewInjector builds an injector over the given dcache with a per-core
// seed. The cache's geometry and register-region configuration steer the
// eviction storms toward the sets that hold pinned register lines.
func NewInjector(plan FaultPlan, seed uint64, target *cache.Cache) *Injector {
	cfg := target.Config()
	numSets := cfg.SizeBytes / mem.LineBytes / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	inj := &Injector{
		plan:     plan,
		rng:      seed,
		target:   target,
		numSets:  numSets,
		stormTag: stormRegion/(uint64(numSets)*mem.LineBytes) + 1,
	}
	if cfg.RegRegionSize > 0 {
		seen := make(map[int]bool)
		for off := uint64(0); off < cfg.RegRegionSize; off += mem.LineBytes {
			set := int(uint64(cfg.RegRegionBase+mem.Addr(off)) / mem.LineBytes % uint64(numSets))
			if !seen[set] {
				seen[set] = true
				inj.regSets = append(inj.regSets, set)
			}
		}
	}
	return inj
}

// next advances the injector's splitmix64 stream.
func (inj *Injector) next() uint64 {
	inj.rng += 0x9e3779b97f4a7c15
	z := inj.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Access forwards a request to the cache, possibly rejecting it (busy
// burst, blocked fill) or arming a delayed completion (jitter). A
// rejected request leaves the caller's retry loop to present it again, so
// its Done callback is restored untouched.
func (inj *Injector) Access(r *mem.Request) bool {
	if inj.plan.BlockRegisterFills && r.RegisterFill && r.Kind == mem.Read && !r.PinSticky {
		inj.Stats.BlockedFills++
		return false
	}
	if inj.now < inj.busyTill {
		inj.Stats.BusyRejects++
		return false
	}
	if inj.plan.MaxJitter > 0 && r.Done != nil {
		if extra := inj.next() % (inj.plan.MaxJitter + 1); extra > 0 {
			orig := r.Done
			r.Done = func(cycle uint64) { inj.schedule(cycle+extra, orig) }
			if !inj.target.Access(r) {
				r.Done = orig
				return false
			}
			inj.Stats.Jittered++
			inj.Stats.JitterCycles += extra
			return true
		}
	}
	return inj.target.Access(r)
}

// Tick releases due delayed completions and rolls the dice for new busy
// bursts and eviction storms. The simulation loop calls it once per cycle
// after the memory hierarchy has ticked.
func (inj *Injector) Tick(cycle uint64) {
	inj.now = cycle
	for len(inj.delayed) > 0 && inj.delayed[0].cycle <= cycle {
		ev := heap.Pop(&inj.delayed).(event)
		ev.fn(ev.cycle)
	}
	if inj.plan.BusyPermille > 0 && cycle >= inj.busyTill &&
		int(inj.next()%1000) < inj.plan.BusyPermille {
		inj.busyTill = cycle + 1 + inj.next()%inj.plan.MaxBusy
		inj.Stats.BusyBursts++
	}
	if inj.plan.StormPermille > 0 && int(inj.next()%1000) < inj.plan.StormPermille {
		inj.storm()
	}
}

// storm fetches StormLines conflicting lines into one target set (and its
// neighbours), forcing evictions. When the cache backs a register region,
// the target set is drawn from the sets its lines occupy, so pinned
// register lines face maximum replacement pressure; otherwise the set is
// random. Rejected fetches (ports, MSHRs) are dropped — the storm models
// opportunistic interference, not guaranteed traffic.
func (inj *Injector) storm() {
	inj.Stats.Storms++
	var set int
	if len(inj.regSets) > 0 {
		set = inj.regSets[inj.next()%uint64(len(inj.regSets))]
		// Wander to an adjacent set every few storms so the pressure
		// also lands beside the pinned sets, not only on them.
		if inj.next()%4 == 0 {
			set = (set + 1) % inj.numSets
		}
	} else {
		set = int(inj.next() % uint64(inj.numSets))
	}
	for k := 0; k < inj.plan.StormLines; k++ {
		tag := inj.stormTag + inj.next()%4096
		addr := mem.Addr((tag*uint64(inj.numSets) + uint64(set)) * mem.LineBytes)
		req := &mem.Request{Addr: addr, Size: mem.LineBytes, Kind: mem.Read}
		if inj.target.Access(req) {
			inj.Stats.StormFetches++
		}
	}
}

// NextEvent always returns now+1: an attached injector vetoes clock
// skip-ahead, so a faulted run ticks every cycle and its busy-burst and
// storm dice are drawn only by Tick.
func (inj *Injector) NextEvent(now, horizon uint64) uint64 { return now + 1 }

// SkipTo is unreachable: NextEvent never lets the run loop skip.
func (inj *Injector) SkipTo(uint64) { panic("harden: SkipTo on a fault injector") }

// schedule queues fn to run at the given cycle during a future Tick.
func (inj *Injector) schedule(cycle uint64, fn func(uint64)) {
	inj.seq++
	heap.Push(&inj.delayed, event{cycle: cycle, seq: inj.seq, fn: fn})
}

// Pending returns the number of completions currently held back by
// jitter (diagnostics and tests).
func (inj *Injector) Pending() int { return len(inj.delayed) }

// DiagDump summarizes the injector's activity for diagnostic reports.
func (inj *Injector) DiagDump() string {
	s := inj.Stats
	return fmt.Sprintf(
		"faults: jittered=%d (+%d cycles) busyBursts=%d busyRejects=%d storms=%d stormFetches=%d blockedFills=%d heldCompletions=%d",
		s.Jittered, s.JitterCycles, s.BusyBursts, s.BusyRejects, s.Storms, s.StormFetches, s.BlockedFills, len(inj.delayed))
}

type event struct {
	cycle uint64
	seq   uint64
	fn    func(uint64)
}

type evHeap []event

func (h evHeap) Len() int { return len(h) }
func (h evHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h evHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *evHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
