package regfile

import (
	"testing"

	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/vrmu"
)

// Each in-flight instruction's hint marks and Belady access count ride its
// rollback-queue entry: recorded at decode, applied at commit, discarded by
// a flush (on both the Flush and the NoRollback Drop path) and recorded
// again when the instruction replays. These tests drive that lifecycle
// through the provider exactly as the core does.

// decode acquires in's registers and pushes its rollback-queue entry.
func decode(t *testing.T, h *harness, p *ViReC, seq uint64, in *isa.Inst, need ...isa.Reg) {
	t.Helper()
	acquireUntil(t, h, p, 0, in, need)
	p.InstDecoded(0, seq, in)
}

// retire decodes and commits in on thread 0, writing its destination.
func retire(t *testing.T, h *harness, p *ViReC, seq uint64, in *isa.Inst, need ...isa.Reg) {
	t.Helper()
	decode(t, h, p, seq, in, need...)
	for _, d := range in.DstRegs(nil) {
		p.WriteValue(0, d, seq)
	}
	p.InstCommitted(0, seq)
}

// entryOf returns thread 0's resident tag-store entry for r.
func entryOf(t *testing.T, p *ViReC, r isa.Reg) vrmu.Entry {
	t.Helper()
	phys, ok := p.Tags().Lookup(0, r)
	if !ok {
		t.Fatalf("%s not resident", r)
	}
	return p.Tags().Entry(phys)
}

func TestViReCHintMarksRideRollbackEntry(t *testing.T) {
	for _, noRollback := range []bool{false, true} {
		name := "flush"
		if noRollback {
			name = "drop"
		}
		t.Run(name, func(t *testing.T) {
			h := newHarness(5)
			p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRCH, NoRollback: noRollback},
				2, h.dev, h.memory, h.layout)
			retire(t, h, p, 1, &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5})
			retire(t, h, p, 2, &isa.Inst{Op: isa.MOVZ, Rd: isa.X2, Imm: 7})
			plain := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X2, Imm: 1}
			// x1 dies at the add; x3 is rematerializable (a forged remat,
			// which only steers timing).
			hinted := &isa.Inst{Op: isa.ADD, Rd: isa.X3, Rn: isa.X1, Rm: isa.X2,
				Hints: isa.HintDeadRn | isa.HintRemat}

			// Decoded, then flushed: the marks never reach the tag store,
			// not even when the squashed sequence number is committed
			// against the emptied queue, nor through a later instruction
			// that reuses the entry's storage.
			decode(t, h, p, 3, hinted, isa.X1, isa.X2)
			if entryOf(t, p, isa.X1).Dead {
				t.Fatal("dead mark applied at decode, before commit")
			}
			p.PipelineFlushed(0)
			p.InstCommitted(0, 3)
			retire(t, h, p, 4, plain, isa.X2)
			if e := entryOf(t, p, isa.X1); e.Dead {
				t.Fatal("a flushed instruction's dead mark reached the tag store")
			}
			if e := entryOf(t, p, isa.X3); e.Remat {
				t.Fatal("a flushed instruction's remat mark reached the tag store")
			}

			// Replayed and committed: the marks are recorded again and
			// applied at commit.
			retire(t, h, p, 5, hinted, isa.X1, isa.X2)
			if !entryOf(t, p, isa.X1).Dead {
				t.Fatal("replayed instruction's dead mark not applied at commit")
			}
			if !entryOf(t, p, isa.X3).Remat {
				t.Fatal("replayed instruction's remat mark not applied at commit")
			}
			if entryOf(t, p, isa.X2).Dead {
				t.Fatal("x2 marked dead, but only the Rn field was hinted")
			}

			// Applied exactly once: a touch revives x1, and later commits
			// through the recycled entries must not mark it again.
			p.ReadValue(0, isa.X1)
			for seq := uint64(6); seq < 12; seq++ {
				retire(t, h, p, seq, plain, isa.X2)
			}
			if entryOf(t, p, isa.X1).Dead {
				t.Fatal("a committed dead mark was applied a second time")
			}
		})
	}
}

func TestViReCOracleCursorCountsCommittedAccesses(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.Belady}, 2, h.dev, h.memory, h.layout)
	p.SetOracleSeq(0, []isa.Reg{isa.X1, isa.X3, isa.X1, isa.X1})
	retire(t, h, p, 1, &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5})
	if got := p.oracleCursor[0]; got != 1 {
		t.Fatalf("cursor after one committed access = %d, want 1", got)
	}

	// Two accesses (XZR is not one), squashed before commit: the cursor
	// stays put, including when the squashed sequence number commits
	// against the emptied queue.
	add := &isa.Inst{Op: isa.ADD, Rd: isa.X3, Rn: isa.X1, Rm: isa.XZR}
	decode(t, h, p, 2, add, isa.X1)
	if got := p.oracleCursor[0]; got != 1 {
		t.Fatalf("cursor advanced at decode: %d, want 1", got)
	}
	p.PipelineFlushed(0)
	p.InstCommitted(0, 2)
	if got := p.oracleCursor[0]; got != 1 {
		t.Fatalf("cursor advanced by a flushed instruction: %d, want 1", got)
	}

	// The replay commits, advancing the cursor by its two accesses; an
	// instruction reading one register twice counts both.
	retire(t, h, p, 3, add, isa.X1)
	if got := p.oracleCursor[0]; got != 3 {
		t.Fatalf("cursor after the replayed add = %d, want 3", got)
	}
	retire(t, h, p, 4, &isa.Inst{Op: isa.CMP, Rn: isa.X1, Rm: isa.X1}, isa.X1)
	if got := p.oracleCursor[0]; got != 5 {
		t.Fatalf("cursor after cmp x1, x1 = %d, want 5", got)
	}
}
