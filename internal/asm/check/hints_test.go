package check_test

import (
	"strings"
	"testing"

	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/isa"
)

func TestHintsDeadAfterUse(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #5
		movz x2, #7
		add  x3, x1, x2
		halt
	`)
	h := check.Synthesize(p)
	// x1 and x2 die at the add; x3 is never read, so the destination is
	// dead too (the general dummy-destination case).
	if got := h.PerInst[2]; got != isa.HintDeadRd|isa.HintDeadRn|isa.HintDeadRm {
		t.Errorf("add hints = %v", got)
	}
	// The movz destinations are still live (read at the add): remat only,
	// no dead flags.
	for _, pc := range []int{0, 1} {
		if got := h.PerInst[pc]; got != isa.HintRemat {
			t.Errorf("movz pc %d hints = %v", pc, got)
		}
	}
}

func TestHintsPathSensitive(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #1
		movz x2, #0
		cbz  x2, skip
		add  x3, x1, x2
	skip:
		add  x4, x2, #1
		halt
	`)
	h := check.Synthesize(p)
	// At the cbz, x1 is read on the fallthrough path only — live out on
	// one path means no dead flag anywhere it might still be read.
	if h.PerInst[0]&isa.HintDeadRd != 0 {
		t.Error("movz x1 flagged dead, but the fallthrough path reads x1")
	}
	// After the taken edge merges, x1 really is dead at the add.
	if h.PerInst[3]&isa.HintDeadRn == 0 {
		t.Errorf("add x3, x1, x2 hints = %v, want dead Rn", h.PerInst[3])
	}
}

func TestHintsRETIsConservative(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #5
		ret
	`)
	h := check.Synthesize(p)
	// The caller is unknown, so nothing may be called dead across a
	// return — not even a register this fragment never reads.
	for pc, flags := range h.PerInst {
		if flags&isa.HintDeadAny != 0 {
			t.Errorf("pc %d: dead flags %v before a RET", pc, flags)
		}
	}
	if h.PerInst[0]&isa.HintRemat == 0 {
		t.Error("movz lost its remat hint")
	}
}

func TestHintsLoopCarried(t *testing.T) {
	p := mustAssemble(t, `
		movz x5, #0
		movz x4, #0
		movz x9, #3
	loop:
		add  x4, x4, x5
		add  x5, x5, #1
		cmp  x5, #10
		b.lt loop
		add  x9, x9, #1
		halt
	`)
	h := check.Synthesize(p)
	// The movz results are rematerializable; nothing else is.
	for pc, flags := range h.PerInst {
		if want := pc <= 2; (flags&isa.HintRemat != 0) != want {
			t.Errorf("pc %d hints = %v, remat want %v", pc, flags, want)
		}
	}
	// Every register written in the loop body is re-read on the next
	// iteration via the backward edge, so nothing inside the loop is dead.
	for _, pc := range []int{3, 4, 5} {
		if h.PerInst[pc]&isa.HintDeadAny != 0 {
			t.Errorf("pc %d: dead flags %v on a loop-carried register", pc, h.PerInst[pc])
		}
	}
	// x9 dies at its final increment, destination included.
	if got := h.PerInst[7] & isa.HintDeadAny; got != isa.HintDeadRd|isa.HintDeadRn {
		t.Errorf("add x9, x9, #1 dead flags = %v, want Rd and Rn", got)
	}
}

func TestHintsNeverFlagXZR(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #1
		add  xzr, x1, x1
		halt
	`)
	h := check.Synthesize(p)
	if h.PerInst[1]&isa.HintDeadRd != 0 {
		t.Error("XZR destination flagged dead; XZR has no retainable value")
	}
	if h.PerInst[1]&isa.HintDeadRn == 0 {
		t.Errorf("add hints = %v, want dead Rn (x1 unread after)", h.PerInst[1])
	}
}

func TestApplyIsIdempotentAndWritesHints(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #5
		movz x2, #7
		add  x3, x1, x2
		halt
	`)
	h1 := check.Apply(p)
	for i := range p.Insts {
		if p.Insts[i].Hints != h1.PerInst[i] {
			t.Fatalf("pc %d: Inst.Hints = %v, report says %v", i, p.Insts[i].Hints, h1.PerInst[i])
		}
	}
	h2 := check.Apply(p)
	for i := range h1.PerInst {
		if h1.PerInst[i] != h2.PerInst[i] {
			t.Fatalf("pc %d: second Apply changed hints %v -> %v", i, h1.PerInst[i], h2.PerInst[i])
		}
	}
}

func TestDeadHintViolations(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #5
		movz x2, #7
		add  x3, x1, x2
		add  x4, x2, #1
		halt
	`)
	check.Apply(p)
	trace := []int{0, 1, 2, 3, 4}
	if v := check.DeadHintViolations(p, trace); len(v) != 0 {
		t.Fatalf("sound hints reported as violations: %v", v)
	}
	// Forge an unsound hint: x2 is read again at pc 3.
	p.Insts[2].Hints |= isa.HintDeadRm
	v := check.DeadHintViolations(p, trace)
	if len(v) != 1 || v[0].PC != 2 || v[0].Kind != check.UnsoundHint {
		t.Fatalf("forged unsound hint not caught: %v", v)
	}
	if !strings.Contains(v[0].Msg, "x2") {
		t.Errorf("violation message %q does not name x2", v[0].Msg)
	}
}

func TestAnnotateFormat(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #5
	loop:
		sub  x1, x1, #1
		cbnz x1, loop
		halt
	`)
	h := check.Synthesize(p)
	out := h.Annotate(p)
	// Unhinted lines carry no annotation column at all.
	for _, want := range []string{"; remat\n", "   1  sub x1, x1, #1\n", "1/4 hinted: 0 dead, 1 remat"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotation missing %q:\n%s", want, out)
		}
	}
}
