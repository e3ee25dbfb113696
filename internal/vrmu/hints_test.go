package vrmu

import (
	"testing"

	"github.com/virec/virec/internal/isa"
)

func TestHintPolicyNames(t *testing.T) {
	for _, p := range HintPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
		if !p.HintAware() {
			t.Errorf("%v must be hint-aware", p)
		}
	}
	for _, p := range append(AllPolicies(), Belady) {
		if p.HintAware() {
			t.Errorf("%v must not be hint-aware", p)
		}
	}
	// Hint policies are opt-in, not part of the Figure-12 default set.
	for _, p := range AllPolicies() {
		if p == LRCH {
			t.Errorf("%v leaked into AllPolicies", p)
		}
	}
}

func TestDeadMarkDominatesVictimChoice(t *testing.T) {
	ts := NewTagStore(3, LRCH)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 2})
	// x0 is oldest and committed — the plain-LRC victim. Mark the
	// youngest, x2, dead: it must now outrank everything.
	for _, p := range phys {
		ts.entries[p].C = true
	}
	ts.entries[phys[0]].A = maxAge
	ts.MarkDead(phys[2])
	v := ts.SelectVictim(nil)
	if ts.Entry(v).Reg != isa.X2 {
		t.Fatalf("LRC+H victim = %s, want the dead x2", ts.Entry(v).Reg)
	}
	vic, evicted := ts.Insert(0, isa.X9, v)
	if !evicted || !vic.Dead {
		t.Fatalf("victim %+v, want evicted with Dead set", vic)
	}
	if ts.Stats.DeadVictims != 1 {
		t.Errorf("DeadVictims = %d, want 1", ts.Stats.DeadVictims)
	}
}

func TestTouchAndWriteClearDeadMark(t *testing.T) {
	ts := NewTagStore(2, LRCH)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 0}, [2]int{0, 1})
	ts.MarkDead(phys[0])
	ts.Touch(phys[0]) // the register is alive again: hint described the old lifetime
	if ts.entries[phys[0]].Dead {
		t.Error("Touch did not clear the dead mark")
	}
	ts.MarkDead(phys[1])
	ts.WriteValue(phys[1], 42)
	if ts.entries[phys[1]].Dead {
		t.Error("WriteValue did not clear the dead mark")
	}
	if ts.Stats.DeadVictims != 0 {
		t.Errorf("DeadVictims = %d, want 0 (no dead entry was evicted)", ts.Stats.DeadVictims)
	}
}

func TestRematMarkRidesVictim(t *testing.T) {
	ts := NewTagStore(1, LRCH)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 0})
	ts.WriteValue(phys[0], 7)
	ts.MarkRemat(phys[0])
	vic, evicted := ts.Evict(phys[0])
	if !evicted || !vic.Remat || !vic.Dirty {
		t.Fatalf("victim %+v, want dirty with Remat set", vic)
	}
}
