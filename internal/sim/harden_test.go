package sim_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
)

// TestRunRecoversPanicsToCrashError proves sim.Run converts any panic
// raised inside the cycle loop into a structured *CrashError carrying a
// diagnostic dump and the original stack, instead of killing the caller.
// The commit observer is the injection point: it runs inside Core.Tick
// exactly like the machinery the hardening layer guards.
func TestRunRecoversPanicsToCrashError(t *testing.T) {
	s, err := sim.New(sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		Workload: gather(t), Iters: 16,
		ContextPct: 60, Policy: vrmu.LRC,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Cores[0].SetOnCommit(func(cpu.CommitEvent) { panic("commit observer exploded") })

	_, err = s.Run()
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *sim.CrashError", err, err)
	}
	if ce.Panic != "commit observer exploded" {
		t.Errorf("Panic = %v, want the original panic value", ce.Panic)
	}
	if len(ce.Stack) == 0 {
		t.Error("CrashError carries no stack")
	}
	for _, want := range []string{"core0", "t0: pc=", "vrmu:", "dcache:"} {
		if !strings.Contains(ce.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, ce.Dump)
		}
	}
	if !strings.Contains(err.Error(), "commit observer exploded") {
		t.Errorf("Error() does not mention the panic: %s", err)
	}
}

// TestMaxCyclesErrorNamesPerCoreProgress checks the exhaustion error
// reports each core's committed-instruction count and last-commit cycle
// so a stuck run is diagnosable without rerunning under the watchdog.
func TestMaxCyclesErrorNamesPerCoreProgress(t *testing.T) {
	_, err := sim.Simulate(sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		Workload: gather(t), Iters: 64,
		ContextPct: 60, Policy: vrmu.LRC,
		MaxCycles: 300, // far below completion
	})
	if err == nil {
		t.Fatal("run must not finish in 300 cycles")
	}
	for _, want := range []string{"did not finish within 300 cycles", "core0 committed", "last commit at cycle", "WatchdogWindow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestHardenedRunMatchesPlainRun is the bit-exactness contract at the sim
// boundary: enabling the full hardening stack (fault injection, watchdog,
// continuous checking) must not change architectural results.
func TestHardenedRunMatchesPlainRun(t *testing.T) {
	base := sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		Workload: gather(t), Iters: 32,
		ContextPct: 60, Policy: vrmu.LRC,
		ValidateValues: true,
	}
	plain, err := sim.Simulate(base)
	if err != nil {
		t.Fatal(err)
	}

	hardened := base
	hardened.Harden = harden.Config{
		FaultSeed:      0xfeedface,
		WatchdogWindow: 200_000,
		CheckEvery:     500,
	}
	faulted, err := sim.Simulate(hardened)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Insts != plain.Insts {
		t.Errorf("fault injection changed committed instructions: %d vs %d", faulted.Insts, plain.Insts)
	}
	if faulted.Cycles == plain.Cycles {
		t.Log("note: fault injection did not perturb timing (suspicious but legal)")
	}
}

// TestInjectionIsDeterministic runs the same seeded faulted config twice
// and demands identical cycle counts: the injector must derive all
// randomness from its seed, never from host state.
func TestInjectionIsDeterministic(t *testing.T) {
	cfg := sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		Workload: gather(t), Iters: 32,
		ContextPct: 60, Policy: vrmu.LRC,
		ValidateValues: true,
		Harden:         harden.Config{FaultSeed: 1234},
	}
	a, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Errorf("same seed diverged: %d/%d cycles, %d/%d insts", a.Cycles, b.Cycles, a.Insts, b.Insts)
	}

	cfg.Harden.FaultSeed = 5678
	c, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles {
		t.Log("note: different seeds produced identical cycle counts (possible but unlikely)")
	}
}
