package check

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
)

// UnsoundHint is the finding kind reported by DeadHintViolations when a
// dead hint contradicts an observed execution.
const UnsoundHint = "unsound-hint"

// Hints is the per-instruction hint synthesis report: the static facts the
// analyzer proved about register lifetimes, rendered as isa.Hint flag sets
// ready to ride in the encoding's hint byte. Every hint is conservative
// over all CFG paths — and hints are a pure performance channel regardless,
// so a hint the VRMU acts on can cost cycles but never correctness (the
// difftest gate holds hint-aware policies to the same lock-step equivalence
// as every other policy).
type Hints struct {
	Name    string
	PerInst []isa.Hint // synthesized flags, one per instruction

	// Dead and Remat count instructions carrying dead-field flags and the
	// remat flag; Hinted counts instructions with any hint at all.
	Dead, Remat, Hinted int
}

// Synthesize runs the hint synthesis pass over prog and returns the report
// without modifying the program. The pass derives:
//
//   - dead-field flags: a flag on field F means the register F names is not
//     live out of the instruction on any path — a dead-after-use source or
//     a never-read-again destination (the general form of the VRMU's
//     dummy-destination optimization). RET is treated as making every
//     register live (the caller is unknown), so hints stay sound across
//     returns; unreachable instructions get no hints.
//   - remat: MOVZ fully determines its destination from the immediate, so
//     a clean copy in memory is never worth writing back.
func Synthesize(prog *asm.Program) *Hints {
	n := prog.Len()
	h := &Hints{
		Name:    prog.Name,
		PerInst: make([]isa.Hint, n),
	}
	if n == 0 {
		return h
	}
	succs, _ := buildCFG(prog)
	reachable := reach(succs, n)

	liveOut := hintLiveness(prog, succs, reachable)

	for i := 0; i < n; i++ {
		if !reachable[i] {
			continue
		}
		in := &prog.Insts[i]
		var flags isa.Hint
		regs, used := in.OperandFields()
		for f, deadFlag := range [4]isa.Hint{
			isa.HintDeadRd, isa.HintDeadRn, isa.HintDeadRm, isa.HintDeadRa,
		} {
			if used[f] && regs[f] != isa.XZR && !liveOut[i].has(regs[f]) {
				flags |= deadFlag
			}
		}
		if in.Op == isa.MOVZ {
			flags |= isa.HintRemat
		}
		h.PerInst[i] = flags
		if flags != 0 {
			h.Hinted++
		}
		if flags&isa.HintDeadAny != 0 {
			h.Dead++
		}
		if flags&isa.HintRemat != 0 {
			h.Remat++
		}
	}
	return h
}

// Apply synthesizes hints for prog and writes them into the instructions'
// Hints fields (the assembler's post-pass). It returns the report. Apply is
// idempotent: synthesis never reads the existing hint flags.
func Apply(prog *asm.Program) *Hints {
	h := Synthesize(prog)
	for i := range prog.Insts {
		prog.Insts[i].Hints = h.PerInst[i]
	}
	return h
}

// hintLiveness is the backward liveness pass specialized for hint
// synthesis: unlike pressure, RET makes every register live (the analysis
// cannot see the caller, so nothing may be called dead across a return).
func hintLiveness(prog *asm.Program, succs [][]int, reachable []bool) []regMask {
	n := prog.Len()
	liveIn := make([]regMask, n)
	liveOut := make([]regMask, n)
	var scratch []isa.Reg
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if !reachable[i] {
				continue
			}
			var out regMask
			if prog.Insts[i].Op == isa.RET {
				out = ^regMask(0)
			}
			for _, s := range succs[i] {
				out |= liveIn[s]
			}
			liveOut[i] = out
			next := out
			scratch = prog.Insts[i].DstRegs(scratch[:0])
			for _, r := range scratch {
				next.remove(r)
			}
			scratch = prog.Insts[i].SrcRegs(scratch[:0])
			for _, r := range scratch {
				if r != isa.XZR {
					next.add(r)
				}
			}
			if next != liveIn[i] {
				liveIn[i] = next
				changed = true
			}
		}
	}
	return liveOut
}

// Annotate renders the program listing with one line per instruction,
// carrying its synthesized hints — the stable text behind
// virec-asm -hints and its golden file, so hint churn shows up in diffs.
func (h *Hints) Annotate(prog *asm.Program) string {
	var b strings.Builder
	for i := range prog.Insts {
		in := prog.Insts[i]
		flags := h.PerInst[i]
		if flags == 0 {
			fmt.Fprintf(&b, "%4d  %s\n", i, in.String())
			continue
		}
		fmt.Fprintf(&b, "%4d  %-36s ;", i, in.String())
		if flags&isa.HintDeadAny != 0 {
			in.Hints = flags
			var buf [4]isa.Reg
			b.WriteString(" dead=")
			var printed regMask
			first := true
			for _, r := range in.DeadRegs(buf[:0]) {
				if printed.has(r) {
					continue
				}
				printed.add(r)
				if !first {
					b.WriteByte(',')
				}
				b.WriteString(r.String())
				first = false
			}
		}
		if flags&isa.HintRemat != 0 {
			b.WriteString(" remat")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "      %d/%d hinted: %d dead, %d remat\n",
		h.Hinted, prog.Len(), h.Dead, h.Remat)
	return b.String()
}

// DeadHintViolations cross-checks the program's dead hints against one
// dynamically observed execution, given as the sequence of committed
// instruction indices (e.g. an interp trace). Scanning the trace backward
// it maintains the set of registers the remaining future reads before
// overwriting; a dead-flagged register in that set is a soundness
// violation: the static pass called a value dead that the machine went on
// to read. The trace must come from a run that halted — a truncated trace
// would under-approximate the future. Each (pc, register) pair is reported
// once.
func DeadHintViolations(prog *asm.Program, pcs []int) []Finding {
	var future regMask // read before overwritten in the remaining future
	var scratch []isa.Reg
	seen := make(map[[2]int]bool)
	var out []Finding
	for i := len(pcs) - 1; i >= 0; i-- {
		pc := pcs[i]
		in := &prog.Insts[pc]
		scratch = in.DeadRegs(scratch[:0])
		for _, r := range scratch {
			if future.has(r) && !seen[[2]int{pc, int(r)}] {
				seen[[2]int{pc, int(r)}] = true
				out = append(out, Finding{PC: pc, Kind: UnsoundHint,
					Msg: fmt.Sprintf("%s hints %s dead, but a later instruction reads it", in.Op, r)})
			}
		}
		scratch = in.DstRegs(scratch[:0])
		for _, r := range scratch {
			future.remove(r)
		}
		scratch = in.SrcRegs(scratch[:0])
		for _, r := range scratch {
			if r != isa.XZR {
				future.add(r)
			}
		}
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings by (PC, Kind, Msg) for deterministic output.
func sortFindings(fs []Finding) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0; j-- {
			a, b := fs[j-1], fs[j]
			if a.PC < b.PC || (a.PC == b.PC && (a.Kind < b.Kind ||
				(a.Kind == b.Kind && a.Msg <= b.Msg))) {
				break
			}
			fs[j-1], fs[j] = b, a
		}
	}
}
