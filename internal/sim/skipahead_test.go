package sim_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// trace captures everything a run exposes to the outside world: the
// measurement result, the marshalled end-of-run metrics snapshot, and the
// marshalled heartbeat delta stream. Two runs are equivalent iff their
// traces are byte-identical.
type trace struct {
	res       *sim.Result
	metrics   []byte
	heartbeat [][]byte
}

// runTraced executes cfg (plus a heartbeat observer) and captures its
// trace. ValidateValues in the incoming cfg already pins the final
// architectural state to the workload golden model; the trace pins
// everything else.
func runTraced(t *testing.T, cfg sim.Config) trace {
	t.Helper()
	var tr trace
	cfg.HeartbeatEvery = 512
	cfg.OnHeartbeat = func(d *telemetry.Delta) {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		tr.heartbeat = append(tr.heartbeat, b)
	}
	res, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	tr.res, tr.metrics = res, b
	return tr
}

// requireEquivalent runs cfg with skip-ahead on and off and demands
// byte-identical observable behavior: cycle and instruction counts, the
// full metrics snapshot, and the heartbeat delta stream, which must also
// fold to exactly the final snapshot.
func requireEquivalent(t *testing.T, cfg sim.Config) {
	t.Helper()
	cfg.ValidateValues = true

	on := cfg
	on.NoSkipAhead = false
	off := cfg
	off.NoSkipAhead = true

	a := runTraced(t, on)
	b := runTraced(t, off)

	if a.res.Cycles != b.res.Cycles {
		t.Fatalf("cycles diverge: skip=%d noskip=%d", a.res.Cycles, b.res.Cycles)
	}
	if a.res.Insts != b.res.Insts {
		t.Fatalf("insts diverge: skip=%d noskip=%d", a.res.Insts, b.res.Insts)
	}
	if string(a.metrics) != string(b.metrics) {
		t.Fatalf("metrics snapshots diverge:\nskip:   %s\nnoskip: %s", a.metrics, b.metrics)
	}
	if len(a.heartbeat) != len(b.heartbeat) {
		t.Fatalf("heartbeat counts diverge: skip=%d noskip=%d", len(a.heartbeat), len(b.heartbeat))
	}
	var fold telemetry.Fold
	for i := range a.heartbeat {
		if string(a.heartbeat[i]) != string(b.heartbeat[i]) {
			t.Fatalf("heartbeat %d diverges:\nskip:   %s\nnoskip: %s", i, a.heartbeat[i], b.heartbeat[i])
		}
		var d telemetry.Delta
		if err := json.Unmarshal(a.heartbeat[i], &d); err != nil {
			t.Fatal(err)
		}
		if err := fold.Apply(&d); err != nil {
			t.Fatalf("heartbeat %d breaks the stream protocol: %v", i, err)
		}
	}
	if eq, why := fold.Equal(a.res.Metrics); !eq {
		t.Fatalf("folded heartbeat stream != final metrics: %s", why)
	}
}

// TestSkipAheadEquivalenceGrid is the core soundness wall: across
// workloads and the providers and replacement policies that can skip, a
// skip-ahead run must be indistinguishable from a tick-every-cycle run —
// same final architectural state (golden-model validated), same cycle
// count, byte-identical metrics and heartbeat stream. The cells that
// cannot skip (Software and Prefetch providers, any fault schedule) run
// once and must skip nothing: comparing two runs of the same loop would
// prove nothing.
func TestSkipAheadEquivalenceGrid(t *testing.T) {
	type axis struct {
		kind   sim.CoreKind
		policy vrmu.Policy
	}
	providers := []axis{
		{sim.Banked, vrmu.LRC},
		{sim.Software, vrmu.LRC},
		{sim.PrefetchFull, vrmu.LRC},
		{sim.PrefetchExact, vrmu.LRC},
		{sim.ViReC, vrmu.LRC},
		{sim.ViReC, vrmu.PLRU},
		{sim.ViReC, vrmu.Belady},
	}
	faults := append([]harden.NamedPlan{{Name: "none"}}, harden.Schedules()...)
	for _, wname := range []string{"gather", "chase", "reduction"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		for _, p := range providers {
			for _, f := range faults {
				name := fmt.Sprintf("%s/%s-%s/%s", wname, p.kind, p.policy, f.Name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := sim.Config{
						Kind:           p.kind,
						ThreadsPerCore: 4,
						Workload:       w,
						Iters:          24,
						ContextPct:     60,
						Policy:         p.policy,
					}
					if f.Name != "none" {
						cfg.Harden = harden.Config{FaultSeed: 0xabad1dea, Plan: f.Plan}
					}
					if f.Name != "none" || (p.kind != sim.Banked && p.kind != sim.ViReC) {
						if _, skipped := runSkipping(t, cfg); skipped != 0 {
							t.Fatalf("skipped %d cycles; skip-ahead must stay off here", skipped)
						}
						return
					}
					requireEquivalent(t, cfg)
				})
			}
		}
	}
}

// runSkipping runs cfg with skip-ahead enabled and value validation on,
// and returns the result with the number of cycles skipped.
func runSkipping(t *testing.T, cfg sim.Config) (*sim.Result, uint64) {
	t.Helper()
	cfg.ValidateValues = true
	cfg.NoSkipAhead = false
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, s.SkipAheadCycles()
}

// TestSkipAheadEquivalenceMultiCore pins the full-system composition:
// several cores contending through the crossbar and DRAM controller, with
// a workload mix, watchdog and continuous invariant checks enabled.
func TestSkipAheadEquivalenceMultiCore(t *testing.T) {
	g, _ := workloads.ByName("gather")
	ch, _ := workloads.ByName("chase")
	requireEquivalent(t, sim.Config{
		Kind:           sim.ViReC,
		Cores:          2,
		ThreadsPerCore: 4,
		WorkloadMix:    []*workloads.Spec{g, ch},
		Iters:          24,
		ContextPct:     60,
		Policy:         vrmu.LRC,
		Harden: harden.Config{
			WatchdogWindow: 100_000,
			CheckEvery:     300,
		},
	})
}

// TestSkipAheadEquivalenceFixedLatency covers the DelayDevice memory
// path, where pure-stall windows are long and regular — the case
// skip-ahead compresses hardest.
func TestSkipAheadEquivalenceFixedLatency(t *testing.T) {
	ch, _ := workloads.ByName("chase")
	requireEquivalent(t, sim.Config{
		Kind:            sim.Banked,
		ThreadsPerCore:  2,
		Workload:        ch,
		Iters:           32,
		FixedMemLatency: 150,
	})
}

// TestSkipAheadEquivalenceNoICache covers a device list without
// icaches: fetch goes through the fixed-latency pipe, so the skip scan and
// refresh see only cores, dcaches and the memory side.
func TestSkipAheadEquivalenceNoICache(t *testing.T) {
	ch, _ := workloads.ByName("chase")
	for _, kind := range []sim.CoreKind{sim.Banked, sim.ViReC} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			requireEquivalent(t, sim.Config{
				Kind:           kind,
				ThreadsPerCore: 2,
				Workload:       ch,
				Iters:          32,
				ContextPct:     60,
				Policy:         vrmu.LRC,
				NoICache:       true,
			})
		})
	}
}

// TestSkipAheadActuallySkips pins where skip-ahead engages. On a
// two-thread pointer chase, long memory stalls dominate: the Banked and
// ViReC providers must skip a real share of the cycles, so the
// equivalence suite cannot pass vacuously. The Software and Prefetch
// providers implement no skip previews, and an attached fault injector
// vetoes every skip, so those runs must tick every cycle.
// SkipAheadCycles counts cycles the run never ticked.
func TestSkipAheadActuallySkips(t *testing.T) {
	type row struct {
		name  string
		kind  sim.CoreKind
		plan  *harden.FaultPlan
		skips bool
	}
	rows := []row{
		{"banked", sim.Banked, nil, true},
		{"virec", sim.ViReC, nil, true},
		{"software", sim.Software, nil, false},
		{"prefetch-full", sim.PrefetchFull, nil, false},
		{"prefetch-exact", sim.PrefetchExact, nil, false},
	}
	for _, np := range harden.Schedules() {
		rows = append(rows, row{"virec/faults=" + np.Name, sim.ViReC, &np.Plan, false})
	}
	ch, _ := workloads.ByName("chase")
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.Config{
				Kind:           r.kind,
				ThreadsPerCore: 2,
				Workload:       ch,
				Iters:          64,
				ContextPct:     100,
				Policy:         vrmu.LRC,
			}
			if r.plan != nil {
				cfg.Harden = harden.Config{FaultSeed: 0x5eed, Plan: *r.plan}
			}
			res, skipped := runSkipping(t, cfg)
			if !r.skips {
				if skipped != 0 {
					t.Fatalf("skipped %d of %d cycles; skip-ahead must stay off here", skipped, res.Cycles)
				}
				return
			}
			if frac := float64(skipped) / float64(res.Cycles); frac < 0.2 {
				t.Errorf("skip-ahead compressed only %.1f%% of %d cycles; expected memory stalls to dominate a chase",
					frac*100, res.Cycles)
			}
		})
	}
}

// TestSkipAheadHeartbeatBoundaries is the jump-aware observer regression:
// heavy clock skipping must not swallow, duplicate, or mis-stamp heartbeat
// deltas. Every skip window is capped at the next heartbeat boundary, so
// the stream must carry exactly one delta per elapsed interval, stamped at
// exact multiples of HeartbeatEvery, plus the final delta stamped at the
// end-of-run cycle.
func TestSkipAheadHeartbeatBoundaries(t *testing.T) {
	const every = 1000
	ch, _ := workloads.ByName("chase")
	var deltas []telemetry.Delta
	s, err := sim.New(sim.Config{
		Kind:           sim.ViReC,
		ThreadsPerCore: 2,
		Workload:       ch,
		Iters:          64,
		ContextPct:     100,
		Policy:         vrmu.LRC,
		HeartbeatEvery: every,
		OnHeartbeat:    func(d *telemetry.Delta) { deltas = append(deltas, *d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if skipped := s.SkipAheadCycles(); skipped < every {
		t.Fatalf("only %d cycles skipped; the run must skip across heartbeat boundaries to exercise the cap", skipped)
	}
	periodic := (res.Cycles - 1) / every
	if got := uint64(len(deltas)); got != periodic+1 {
		t.Fatalf("heartbeat count: got %d deltas over %d cycles, want %d periodic + 1 final", got, res.Cycles, periodic)
	}
	for i, d := range deltas {
		if d.Seq != uint64(i) {
			t.Fatalf("delta %d: seq %d, want %d", i, d.Seq, i)
		}
		if (d.Reset) != (i == 0) {
			t.Fatalf("delta %d: reset=%v; only the stream head may restate", i, d.Reset)
		}
		want := uint64(i+1) * every
		if i == len(deltas)-1 {
			want = res.Cycles
		}
		if d.Cycle != want {
			t.Fatalf("delta %d stamped cycle %d, want %d", i, d.Cycle, want)
		}
	}
}

// BenchmarkSkipAhead measures the timed model on a stall-dominated
// pointer chase with the clock skip on and off. The on/off allocation
// parity is gated in CI: the skip machinery (NextEvent scans, SkipTo
// accounting) must not allocate, so enabling it may not add allocs/op
// over the tick-every-cycle loop.
func BenchmarkSkipAhead(b *testing.B) {
	ch, _ := workloads.ByName("chase")
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles, skipped uint64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Kind:           sim.ViReC,
					ThreadsPerCore: 8,
					Workload:       ch,
					Iters:          64,
					ContextPct:     60,
					Policy:         vrmu.LRC,
					NoSkipAhead:    mode.noSkip,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
				skipped += s.SkipAheadCycles()
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
			b.ReportMetric(float64(skipped)/float64(cycles), "skip-frac")
		})
	}
}

// TestSkipAheadLivelockTripsIdentically pins error behavior: with a
// watchdog window shorter than one 300-cycle memory round trip, a
// single-thread chase trips the watchdog during a stall the skip side
// jumps across. The skip window is capped at the watchdog deadline, so
// the trip must land on the same cycle with and without skip-ahead.
func TestSkipAheadLivelockTripsIdentically(t *testing.T) {
	ch, _ := workloads.ByName("chase")
	run := func(noSkip bool) (*sim.LivelockError, uint64) {
		s, err := sim.New(sim.Config{
			Kind:            sim.Banked,
			ThreadsPerCore:  1,
			Workload:        ch,
			Iters:           32,
			FixedMemLatency: 300,
			NoSkipAhead:     noSkip,
			Harden:          harden.Config{WatchdogWindow: 250},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		le, ok := err.(*sim.LivelockError)
		if !ok {
			t.Fatalf("err = %v (%T), want *sim.LivelockError", err, err)
		}
		return le, s.SkipAheadCycles()
	}
	a, skipped := run(false)
	b, _ := run(true)
	if skipped == 0 {
		t.Fatal("the skip side skipped no cycles before the trip")
	}
	if a.Cycle != b.Cycle || a.LastProgress != b.LastProgress {
		t.Errorf("livelock trip diverges: skip cycle=%d last=%d, noskip cycle=%d last=%d",
			a.Cycle, a.LastProgress, b.Cycle, b.LastProgress)
	}
}

// TestSkipAheadMaxCyclesIdentical pins the exhaustion path: a run that
// cannot finish within MaxCycles must fail with the same per-core
// progress report whether or not the clock was skipped.
func TestSkipAheadMaxCyclesIdentical(t *testing.T) {
	g, _ := workloads.ByName("gather")
	run := func(noSkip bool) string {
		_, err := sim.Simulate(sim.Config{
			Kind:           sim.ViReC,
			ThreadsPerCore: 4,
			Workload:       g,
			Iters:          64,
			ContextPct:     60,
			Policy:         vrmu.LRC,
			NoSkipAhead:    noSkip,
			MaxCycles:      300,
		})
		if err == nil {
			t.Fatal("run must not finish in 300 cycles")
		}
		return err.Error()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("max-cycles reports diverge:\nskip:   %s\nnoskip: %s", a, b)
	}
}
