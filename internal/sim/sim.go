// Package sim composes complete near-memory systems out of the simulator
// building blocks: one or more CGMT cores (with any register provider),
// private L1 dcaches, a shared crossbar and the DDR5-flavoured memory
// controller, as in the paper's evaluation setup (Table 1, Section 6).
// It also implements the task-offload mechanism: thread contexts are
// written into each core's reserved register region in memory, and cores
// fetch them when a thread is first scheduled.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/mem/dram"
	"github.com/virec/virec/internal/mem/xbar"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// CoreKind selects the register-context architecture of every core.
type CoreKind int

// Core kinds evaluated in the paper.
const (
	// Banked is the banked-register-file CGMT baseline.
	Banked CoreKind = iota
	// ViReC is the paper's architecture.
	ViReC
	// Software is software context switching.
	Software
	// PrefetchFull double-buffers complete contexts.
	PrefetchFull
	// PrefetchExact double-buffers oracle-predicted contexts.
	PrefetchExact
)

var coreKindNames = [...]string{"banked", "virec", "software", "prefetch-full", "prefetch-exact"}

// String returns the kind's name.
func (k CoreKind) String() string {
	if int(k) < len(coreKindNames) {
		return coreKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseCoreKind resolves a name printed by String.
func ParseCoreKind(s string) (CoreKind, error) {
	for i, n := range coreKindNames {
		if n == s {
			return CoreKind(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown core kind %q", s)
}

// Config describes a system to simulate.
type Config struct {
	Kind           CoreKind
	Cores          int
	ThreadsPerCore int

	// Workload and its per-thread size. Every thread of every core runs
	// the same kernel on private data (the paper's setup) unless
	// WorkloadMix is set.
	Workload *workloads.Spec
	Iters    int
	Seed     uint64

	// WorkloadMix, when non-empty, assigns kernels to hardware threads
	// round-robin (thread t runs WorkloadMix[t % len]), modeling a
	// near-memory processor servicing offloads from different host
	// applications concurrently. Workload is still used for ViReC
	// context sizing and oracle sets; it defaults to WorkloadMix[0].
	WorkloadMix []*workloads.Spec

	// ViReC sizing: either PhysRegs directly, or ContextPct as a percent
	// of the aggregate active context (the paper's 40-100% sweep).
	PhysRegs   int
	ContextPct int
	Policy     vrmu.Policy
	ViReCOpts  regfile.ViReCConfig // ablations; PhysRegs/Policy overridden

	// Pipeline overrides (zero = Table 1 defaults).
	Pipeline cpu.Config

	// DCache geometry (zero = Table 1: 8 KB, 4-way, 2-cycle, 24 MSHRs).
	DCacheBytes      int
	DCacheHitLatency int
	DCacheMSHRs      int
	PinningDisabled  bool

	// NoICache replaces the 32 KB instruction cache (Table 1) with a
	// fixed-latency fetch pipe; the kernels fit the icache after warmup,
	// so this mainly removes cold-start fetch misses.
	NoICache bool

	// Memory system. FixedMemLatency > 0 replaces the DRAM model with a
	// constant-latency device (latency-sweep experiments).
	DRAM            dram.Config
	Xbar            xbar.Config
	FixedMemLatency int

	// ValidateValues enables the golden-model cross-check (slows the run
	// slightly; tests keep it on, large sweeps may disable).
	ValidateValues bool

	// Harden configures the hardening layer: deterministic fault
	// injection on the dcache path, the livelock watchdog, and the
	// continuous invariant checker. The zero value leaves plain runs
	// unchanged (a final invariant sweep always runs).
	Harden harden.Config

	// TraceEvents, when > 0, enables the cycle-level event tracer with a
	// ring buffer of that many events. Without a sink the ring keeps the
	// most recent events (watchdog dumps embed the tail); with TraceSink
	// set, full batches stream out as the ring fills, so a complete run
	// trace costs bounded memory. Zero leaves tracing fully disabled —
	// the emit paths then cost one branch and zero allocations.
	TraceEvents int
	// TraceSink receives event batches in emit order (see TraceEvents).
	// The slice is reused after the call returns.
	TraceSink func([]telemetry.Event)

	// HeartbeatEvery, when > 0 together with OnHeartbeat, streams an
	// incremental telemetry.Delta every that many cycles: only the
	// metrics that changed since the previous heartbeat, sequence-
	// numbered from 0 with a Reset head. Run always emits one final
	// delta computed from the same snapshot returned in Result.Metrics,
	// so folding the stream reproduces the final pull snapshot exactly.
	// Observers are side-channel only: they must not influence the run
	// (the determinism tests attach them and pin byte-identity). The
	// disabled path costs one branch per cycle and zero allocations.
	HeartbeatEvery uint64
	// OnHeartbeat receives the periodic deltas. The delta is owned by
	// the callee; the simulator never mutates it after delivery.
	OnHeartbeat func(*telemetry.Delta)

	// WrapProvider, when set, may replace each core's register provider
	// with the value it returns (a nil return keeps the original). The
	// differential-test harness uses it to interpose deliberately buggy
	// wrappers between the pipeline and a real provider; normal runs
	// leave it nil. Applied after kind-specific wiring, so metrics,
	// telemetry and oracle installation see the unwrapped provider.
	WrapProvider func(coreID int, p cpu.Provider) cpu.Provider

	// NoSkipAhead disables event-driven clock skip-ahead. With the
	// default (skip enabled), the run loop jumps the clock over runs of
	// cycles it can prove are pure stalls on every component. Only runs
	// with Banked or ViReC cores and no fault injection can skip; final
	// architectural state, metrics and heartbeat streams are
	// byte-identical either way (the skip-ahead equivalence suite and the
	// difftest -skipahead=off lane hold this). Disabling forces the
	// classic tick-every-cycle loop.
	NoSkipAhead bool

	MaxCycles uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Cores == 0 {
		out.Cores = 1
	}
	if out.ThreadsPerCore == 0 {
		out.ThreadsPerCore = 8
	}
	if out.Iters == 0 {
		out.Iters = 256
	}
	if out.DCacheBytes == 0 {
		out.DCacheBytes = 8 * 1024
	}
	if out.DCacheHitLatency == 0 {
		out.DCacheHitLatency = 2
	}
	if out.DCacheMSHRs == 0 {
		out.DCacheMSHRs = 24
	}
	if out.MaxCycles == 0 {
		out.MaxCycles = 500_000_000
	}
	if out.Seed == 0 {
		out.Seed = 0x9e3779b97f4a7c15
	}
	if out.OnHeartbeat == nil {
		out.HeartbeatEvery = 0
	}
	return out
}

// PhysRegsFor resolves the physical register count for a ViReC core:
// explicit PhysRegs wins; otherwise ContextPct of the workload's active
// context per thread, times the thread count (minimum 8).
func (c *Config) PhysRegsFor() int {
	if c.PhysRegs > 0 {
		return c.PhysRegs
	}
	pct := c.ContextPct
	if pct == 0 {
		pct = 100
	}
	active := len(c.Workload.ActiveRegs())
	per := (active*pct + 99) / 100
	if per < 1 {
		per = 1
	}
	n := per * c.ThreadsPerCore
	if n < 8 {
		n = 8
	}
	return n
}

// System is a composed simulation ready to run.
type System struct {
	cfg     Config
	Memory  *mem.Memory
	Cores   []*cpu.Core
	DCaches []*cache.Cache
	ICaches []*cache.Cache
	Xbar    *xbar.Xbar
	DRAM    *dram.DRAM
	layouts []cpu.RegLayout
	oracles []*regfile.ViReC // Belady-policy providers awaiting sequences

	// Injectors, when fault injection is enabled, sit between each core
	// (pipeline, store queue, register provider) and its dcache.
	Injectors []*harden.Injector

	// devices lists every clocked component once, in tick order: cores,
	// dcaches, icaches, fault injectors, the crossbar, then DRAM or the
	// fixed-latency device. Run ticks, probes and skip-refreshes the
	// system by walking it.
	devices []device

	// Registry is the run's unified metric namespace: every structure's
	// counters, gauges and histograms live here under per-structure
	// prefixes (core0/..., rf0/..., dcache0/..., dram/..., xbar/...).
	// Always built — registration is pointer aliasing, so it costs the
	// hot paths nothing.
	Registry *telemetry.Registry
	// Tracer is the cycle-level event tracer, nil unless
	// Config.TraceEvents > 0.
	Tracer *telemetry.Tracer

	// skipped counts cycles the run loop jumped over instead of ticking.
	// Deliberately not in the Registry: it is simulator-speed bookkeeping,
	// and registering it would make skip and no-skip metric snapshots
	// differ by construction.
	skipped uint64

	verifies [][]workloads.Verify
}

// SkipAheadCycles reports how many cycles the last Run jumped over via
// clock skip-ahead (zero when disabled or never engaged).
func (s *System) SkipAheadCycles() uint64 { return s.skipped }

// Address-space layout: reserved register regions first, then per-thread
// data slabs, all separated by odd line offsets to avoid pathological
// set aliasing between threads.
const (
	regRegionBase = mem.Addr(0x4000_0000)
	progBase      = mem.Addr(0x8000_0000)
	dataBase      = mem.Addr(0x0010_0000)
	slabSkew      = 0x2c0
)

// New builds a system. The workload must be set.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil && len(cfg.WorkloadMix) > 0 {
		cfg.Workload = cfg.WorkloadMix[0]
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: config needs a workload")
	}
	if cfg.Kind == Banked && cfg.ThreadsPerCore > 8 {
		return nil, fmt.Errorf("sim: banked core supports at most 8 threads (Table 1), got %d", cfg.ThreadsPerCore)
	}

	s := &System{cfg: cfg, Memory: mem.NewMemory()}
	s.Registry = telemetry.NewRegistry()
	if cfg.TraceEvents > 0 {
		s.Tracer = telemetry.NewTracer(cfg.TraceEvents)
		if cfg.TraceSink != nil {
			s.Tracer.SetSink(cfg.TraceSink)
		}
	}

	// Memory side: either the DRAM model behind the crossbar, or a fixed
	// latency device for controlled sweeps.
	var below interface {
		mem.Device
		device
	}
	if cfg.FixedMemLatency > 0 {
		below = mem.NewDelayDevice(uint64(cfg.FixedMemLatency))
	} else {
		s.DRAM = dram.New(cfg.DRAM)
		s.DRAM.RegisterMetrics(s.Registry, "dram")
		below = s.DRAM
	}
	s.Xbar = xbar.New(cfg.Xbar, below)
	s.Xbar.RegisterMetrics(s.Registry, "xbar")

	pipeCfg := cfg.Pipeline
	pipeCfg.Threads = cfg.ThreadsPerCore
	pipeCfg.ValidateValues = cfg.ValidateValues

	for coreID := 0; coreID < cfg.Cores; coreID++ {
		layout := cpu.RegLayout{
			Base: regRegionBase + mem.Addr(coreID)*mem.Addr(cfg.ThreadsPerCore*cpu.ThreadStride+4096),
		}
		s.layouts = append(s.layouts, layout)

		ccfg := cache.Config{
			Name:            fmt.Sprintf("dcache%d", coreID),
			SizeBytes:       cfg.DCacheBytes,
			Assoc:           4,
			HitLatency:      cfg.DCacheHitLatency,
			MSHRs:           cfg.DCacheMSHRs,
			Ports:           1,
			PinningDisabled: cfg.PinningDisabled,
		}
		if cfg.Kind == ViReC {
			ccfg.RegRegionBase = layout.Base
			ccfg.RegRegionSize = layout.Size(cfg.ThreadsPerCore)
		}
		dc := cache.New(ccfg, s.Xbar)
		dc.RegisterMetrics(s.Registry, fmt.Sprintf("dcache%d", coreID))
		dc.SetTelemetry(s.Tracer, coreID)
		s.DCaches = append(s.DCaches, dc)

		// The core and its register provider see the dcache through the
		// fault injector when one is configured; the cache itself (and
		// everything below it) is unchanged.
		var dcDev mem.Device = dc
		if cfg.Harden.FaultSeed != 0 {
			inj := harden.NewInjector(cfg.Harden.ResolvedPlan(),
				cfg.Harden.FaultSeed+uint64(coreID)*0x9e3779b97f4a7c15, dc)
			inj.RegisterMetrics(s.Registry, fmt.Sprintf("inject%d", coreID))
			s.Injectors = append(s.Injectors, inj)
			dcDev = inj
		}

		var ic *cache.Cache
		if !cfg.NoICache {
			ic = cache.New(cache.Config{
				Name:       fmt.Sprintf("icache%d", coreID),
				SizeBytes:  32 * 1024,
				Assoc:      4,
				HitLatency: 2,
				MSHRs:      4,
				Ports:      1,
			}, s.Xbar)
			ic.RegisterMetrics(s.Registry, fmt.Sprintf("icache%d", coreID))
			s.ICaches = append(s.ICaches, ic)
		}

		var provider cpu.Provider
		switch cfg.Kind {
		case Banked:
			provider = regfile.NewBanked(cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case ViReC:
			vc := cfg.ViReCOpts
			vc.PhysRegs = cfg.PhysRegsFor()
			vc.Policy = cfg.Policy
			v := regfile.NewViReC(vc, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
			if vc.PrefetchNext {
				for th := 0; th < cfg.ThreadsPerCore; th++ {
					spec := cfg.Workload
					if len(cfg.WorkloadMix) > 0 {
						spec = cfg.WorkloadMix[th%len(cfg.WorkloadMix)]
					}
					v.SetPrefetchRegs(th, spec.ActiveRegs())
				}
			}
			if vc.Policy == vrmu.Belady {
				s.oracles = append(s.oracles, v)
			}
			provider = v
		case Software:
			provider = regfile.NewSoftware(cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case PrefetchFull:
			provider = regfile.NewPrefetch(regfile.PrefetchFull, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case PrefetchExact:
			pf := regfile.NewPrefetch(regfile.PrefetchExact, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
			for th := 0; th < cfg.ThreadsPerCore; th++ {
				pf.SetUsedRegs(th, cfg.Workload.ActiveRegs())
			}
			provider = pf
		default:
			return nil, fmt.Errorf("sim: unknown core kind %d", cfg.Kind)
		}

		if v, ok := provider.(*regfile.ViReC); ok {
			v.RegisterMetrics(s.Registry, fmt.Sprintf("rf%d", coreID))
			v.SetTelemetry(s.Tracer, coreID)
		}
		if cfg.WrapProvider != nil {
			if w := cfg.WrapProvider(coreID, provider); w != nil {
				provider = w
			}
		}

		core := cpu.New(pipeCfg, provider, dcDev, s.Memory)
		core.RegisterMetrics(s.Registry, fmt.Sprintf("core%d", coreID))
		core.SetTelemetry(s.Tracer, coreID)
		if ic != nil {
			core.SetICache(ic)
			base := progBase + mem.Addr(coreID)*0x10_0000
			for th := 0; th < cfg.ThreadsPerCore; th++ {
				// Threads running the same kernel share icache lines;
				// a mix gives each kernel its own program addresses.
				slot := 0
				if len(cfg.WorkloadMix) > 0 {
					slot = th % len(cfg.WorkloadMix)
				}
				core.Thread(th).ProgBase = base + mem.Addr(slot)*0x1000
			}
		}
		s.Cores = append(s.Cores, core)
	}

	s.devices = slices.Concat(devicesOf(s.Cores), devicesOf(s.DCaches), devicesOf(s.ICaches),
		devicesOf(s.Injectors), []device{s.Xbar, below})

	s.offload()
	s.recordOracles()
	return s, nil
}

// recordOracles runs each thread functionally on a memory clone and
// installs its register access sequence into Belady-policy providers.
func (s *System) recordOracles() {
	if len(s.oracles) == 0 {
		return
	}
	for coreID, v := range s.oracles {
		layout := s.layouts[coreID]
		for th := 0; th < s.cfg.ThreadsPerCore; th++ {
			var ctx interp.Context
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				ctx.Set(r, s.Memory.Read64(layout.RegAddr(th, r)))
			}
			var seq []isa.Reg
			var buf [6]isa.Reg
			interp.Run(s.specFor(th).Prog, &ctx, s.Memory.Clone(), 100_000_000,
				func(e interp.TraceEntry) {
					for _, r := range e.Inst.Regs(buf[:0]) {
						if r != isa.XZR {
							seq = append(seq, r)
						}
					}
				})
			v.SetOracleSeq(th, seq)
		}
	}
}

// SetOnCommit installs a per-commit observer on every core; the callback
// fires once per committed instruction with the core's id, in each core's
// commit order. Install before Run.
func (s *System) SetOnCommit(fn func(coreID int, ev cpu.CommitEvent)) {
	for id, c := range s.Cores {
		id := id
		c.SetOnCommit(func(ev cpu.CommitEvent) { fn(id, ev) })
	}
}

// ThreadSlabBase returns the base address of the private data slab thread
// th of core coreID is offloaded with under this config — the same layout
// arithmetic offload uses, exposed so differential tests can build golden
// references against an identical address space before the system exists.
func (c *Config) ThreadSlabBase(coreID, th int) mem.Addr {
	cfg := c.withDefaults()
	slab := cfg.slabStride()
	global := coreID*cfg.ThreadsPerCore + th
	return dataBase + mem.Addr(uint64(global)*slab)
}

// slabStride returns the per-thread data-slab stride.
func (c *Config) slabStride() uint64 {
	max := c.Workload.SlabBytes
	for _, w := range c.WorkloadMix {
		if w.SlabBytes > max {
			max = w.SlabBytes
		}
	}
	return max + slabSkew
}

// specFor returns the kernel hardware thread th runs.
func (s *System) specFor(th int) *workloads.Spec {
	if len(s.cfg.WorkloadMix) > 0 {
		return s.cfg.WorkloadMix[th%len(s.cfg.WorkloadMix)]
	}
	return s.cfg.Workload
}

// offload writes each thread's program context: data slab initialization,
// initial registers into the reserved region (the offload payload), and
// the golden shadow for validation.
func (s *System) offload() {
	cfg := s.cfg
	s.verifies = make([][]workloads.Verify, cfg.Cores)
	slab := s.cfg.slabStride()
	for coreID, core := range s.Cores {
		s.verifies[coreID] = make([]workloads.Verify, cfg.ThreadsPerCore)
		for th := 0; th < cfg.ThreadsPerCore; th++ {
			spec := s.specFor(th)
			global := coreID*cfg.ThreadsPerCore + th
			base := dataBase + mem.Addr(uint64(global)*slab)
			p := workloads.Params{Iters: cfg.Iters, Seed: cfg.Seed, ThreadID: global}
			thread := core.Thread(th)
			thread.Prog = spec.Prog
			layout := s.layouts[coreID]
			tid := th
			s.verifies[coreID][th] = spec.Setup(s.Memory, base, p,
				func(r isa.Reg, v uint64) {
					s.Memory.Write64(layout.RegAddr(tid, r), v)
					thread.SetShadow(r, v)
				})
		}
		core.Start()
	}
}

// Result carries the measurements of one run.
type Result struct {
	Cycles      uint64
	Insts       uint64
	IPC         float64 // aggregate instructions per system cycle
	CoreStats   []cpu.Stats
	CacheStats  []cache.Stats
	ICacheStats []cache.Stats
	DRAMStats   *dram.Stats
	// TagStats is present for ViReC systems (register hit rates).
	TagStats []vrmu.Stats
	// Metrics is the end-of-run snapshot of the system's telemetry
	// registry: every structure's counters, gauges and histograms under
	// one label-addressed namespace. The counters alias the same memory
	// as the Stats structs above, so the two views reconcile exactly.
	Metrics *telemetry.Snapshot
}

// Run simulates until every core finishes (or MaxCycles elapse) and
// verifies every thread's final state against the workload golden model.
func (s *System) Run() (res *Result, err error) {
	cfg := s.cfg
	var cycle uint64
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			res = nil
			err = &CrashError{
				Panic: r,
				Cycle: cycle,
				Dump:  harden.Dump(s.view()),
				Stack: stack,
				Fingerprint: fmt.Sprintf("%s: %s",
					cfg.scenarioFingerprint(), harden.Fingerprint(r, stack)),
			}
		}
	}()

	wd := harden.Watchdog{Window: cfg.Harden.WatchdogWindow}
	lastInsts := make([]uint64, len(s.Cores))
	lastCommit := make([]uint64, len(s.Cores))
	var hbPrev *telemetry.Snapshot
	var hbSeq uint64
	// skipProbe gates the skip-ahead attempt. Ticking is always correct,
	// so a probe may be deferred freely: a failed probe (some component
	// was busy) backs off exponentially up to 15 cycles, making busy
	// phases pay the NextEvent scan on at most 1/16 of their cycles,
	// while stall windows — typically a full memory latency long — are
	// still caught within a few cycles of opening. A successful skip
	// resets the backoff so a window capped at an observer boundary
	// resumes skipping right after the boundary tick.
	var skipProbe, skipBackoff uint64
	for ; cycle < cfg.MaxCycles; cycle++ {
		for _, d := range s.devices {
			d.Tick(cycle)
		}
		done := true
		var total uint64
		for i, c := range s.Cores {
			done = done && c.Done()
			total += c.Stats.Insts
			if c.Stats.Insts != lastInsts[i] {
				lastInsts[i] = c.Stats.Insts
				lastCommit[i] = cycle
			}
		}
		if done {
			break
		}
		if wd.Window > 0 && wd.Observe(cycle, total) {
			return nil, &LivelockError{
				Cycle:        cycle,
				Window:       wd.Window,
				LastProgress: wd.LastProgress(),
				Dump:         harden.Dump(s.view()),
			}
		}
		if nextBoundary(cycle, cfg.Harden.CheckEvery) == cycle {
			if msg := harden.CheckSystem(s.view()); msg != "" {
				return nil, &InvariantError{
					Cycle:     cycle,
					Violation: msg,
					Dump:      harden.Dump(s.view()),
				}
			}
		}
		if nextBoundary(cycle, cfg.HeartbeatEvery) == cycle {
			var d *telemetry.Delta
			d, hbPrev = s.Registry.DeltaSince(hbPrev, hbSeq, cycle+1)
			hbSeq++
			cfg.OnHeartbeat(d)
		}
		if !cfg.NoSkipAhead && cycle >= skipProbe {
			if t := s.skipTarget(cycle, &wd); t <= cycle+1 {
				skipBackoff = 2*skipBackoff + 1
				if skipBackoff > 15 {
					skipBackoff = 15
				}
				skipProbe = cycle + 1 + skipBackoff
			} else {
				// Cycles (cycle, t) are pure stalls on every component:
				// ticking them would only advance stall counters, RNG
				// streams and device clocks. Bulk-account them and
				// resume at t.
				last := t - 1
				s.skipped += last - cycle
				for _, d := range s.devices {
					d.SkipTo(last)
				}
				cycle = last
				skipBackoff = 0
			}
		}
	}
	if cycle >= cfg.MaxCycles {
		return nil, s.maxCyclesError(lastInsts, lastCommit)
	}

	// Final unconditional invariant sweep: every run, faulted or not,
	// must end with a self-consistent machine.
	if msg := harden.CheckSystem(s.view()); msg != "" {
		return nil, &InvariantError{
			Cycle:     cycle,
			Violation: msg,
			Dump:      harden.Dump(s.view()),
		}
	}

	res = &Result{Cycles: cycle + 1}
	for coreID, c := range s.Cores {
		res.CoreStats = append(res.CoreStats, c.Stats)
		res.Insts += c.Stats.Insts
		res.CacheStats = append(res.CacheStats, s.DCaches[coreID].Stats)
		if coreID < len(s.ICaches) {
			res.ICacheStats = append(res.ICacheStats, s.ICaches[coreID].Stats)
		}
		if v, ok := c.Provider().(*regfile.ViReC); ok {
			res.TagStats = append(res.TagStats, v.Tags().Stats)
		}
		for th := 0; th < cfg.ThreadsPerCore; th++ {
			if err := s.verifies[coreID][th](c.Thread(th).Shadow, s.Memory); err != nil {
				return nil, fmt.Errorf("sim: core %d thread %d (%s): %w",
					coreID, th, s.specFor(th).Name, err)
			}
		}
	}
	if s.DRAM != nil {
		st := s.DRAM.Stats
		res.DRAMStats = &st
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	s.Tracer.Flush()
	res.Metrics = s.Registry.Snapshot()
	res.Metrics.Cycle = res.Cycles
	if cfg.HeartbeatEvery > 0 {
		// Final heartbeat from the very snapshot the caller receives:
		// fold(stream) == Result.Metrics is exact, not approximate.
		cfg.OnHeartbeat(telemetry.DeltaFrom(hbPrev, res.Metrics, hbSeq))
	}
	return res, nil
}

// device is one clocked component of a System. The run loop ticks every
// device once per cycle in list order; the skip-ahead path asks each for
// its next event and, when the whole list agrees a run of cycles is a
// pure stall, moves each across it with SkipTo.
type device interface {
	// Tick advances the device one cycle.
	Tick(cycle uint64)
	// NextEvent returns the earliest cycle in (now, horizon] at which
	// Tick must run normally, or horizon when nothing is due sooner,
	// assuming no new accesses arrive. Read-only; now is the last ticked
	// cycle and horizon exceeds now+1.
	NextEvent(now, horizon uint64) uint64
	// SkipTo moves the device across the pure-stall cycles up to and
	// including last, with exactly the effects ticking them would have
	// had: stall accounting, RNG draws, clock stamps.
	SkipTo(last uint64)
}

// devicesOf lists ds as devices.
func devicesOf[D device](ds []D) []device {
	out := make([]device, len(ds))
	for i, d := range ds {
		out[i] = d
	}
	return out
}

// nextBoundary returns the first cycle at or after c at which a periodic
// observer with period k fires (cycles k-1, 2k-1, ...), or MaxUint64 when
// k is zero (observer disabled).
func nextBoundary(c, k uint64) uint64 {
	if k == 0 {
		return math.MaxUint64
	}
	return c/k*k + k - 1
}

// skipTarget returns the earliest cycle after now that must be ticked
// normally. When it exceeds now+1, every cycle strictly between now and
// the target is a provable pure stall system-wide: no watchdog deadline or
// periodic observer boundary (invariant check, heartbeat) falls inside
// the window, and every device's NextEvent agrees. The loop may then jump
// the clock without changing any observable behavior.
//
// Devices are asked in tick order, each against the tightest bound found
// so far. Cores lead, so a busy core ends the probe at once; an attached
// fault injector always ends it.
//
//virec:hotpath
func (s *System) skipTarget(now uint64, wd *harden.Watchdog) uint64 {
	cfg := s.cfg
	t := cfg.MaxCycles
	if d, ok := wd.Deadline(); ok {
		t = min(t, d)
	}
	// The first observer boundary at or after now+1 must be ticked so its
	// check or delta happens exactly where an unskipped run takes it.
	t = min(t, nextBoundary(now+1, cfg.Harden.CheckEvery), nextBoundary(now+1, cfg.HeartbeatEvery))
	for _, d := range s.devices {
		if t <= now+1 {
			break
		}
		t = d.NextEvent(now, t)
	}
	return max(t, now+1)
}

// Simulate is the one-call convenience: build and run.
func Simulate(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
