package isa

import "strings"

// Hint is the per-instruction register-management hint set synthesized by
// the static analyzer (internal/asm/check) and carried through byte 7 of
// the binary encoding. Hints are a pure performance channel: the VRMU may
// use them to pick better victims or elide spill traffic, but architectural
// results never depend on them. A missing hint costs nothing; difftest
// proves a wrong one cannot cost correctness (only cycles).
//
// The dead flags name encoding fields, not registers: HintDeadRn on an ADD
// means "after this instruction commits, the architectural register named
// by the Rn field is dead on every path". A flag may only be set on a field
// the op actually uses (see OperandFields) — unused fields hold zero in the
// encoding and must never be interpreted as X0.
type Hint uint8

// Hint flags (bits 0-5 of the encoded hint byte).
const (
	HintDeadRd Hint = 1 << iota // reg named by Rd dead after commit
	HintDeadRn                  // reg named by Rn dead after commit
	HintDeadRm                  // reg named by Rm dead after commit
	HintDeadRa                  // reg named by Ra dead after commit
	HintRemat                   // dest value rematerializable from the encoding alone

	// hintReserved is bit 5: nothing produces or consumes it, but the
	// decoder accepts it and the encoder preserves it, so encodings that
	// carry it keep decoding and round-tripping byte-exact.
	hintReserved

	// HintDeadAny masks the four field-dead flags.
	HintDeadAny = HintDeadRd | HintDeadRn | HintDeadRm | HintDeadRa

	// hintFlagMask covers every defined flag; bits 6-7 of the encoded
	// byte hold the hint-format version and never appear in a Hint.
	hintFlagMask Hint = 1<<6 - 1
)

// hintVersionShift positions the 2-bit version field in the encoded byte.
// Version 0 is the legacy reserved-zero byte (no hints, no flags allowed);
// version 1 is the format defined here; versions 2-3 are reserved.
const hintVersionShift = 6

var hintDeadFlags = [4]Hint{HintDeadRd, HintDeadRn, HintDeadRm, HintDeadRa}

var hintFieldNames = [4]string{"Rd", "Rn", "Rm", "Ra"}

// String renders the flag set, e.g. "dead(Rd,Rm)|remat".
func (h Hint) String() string {
	if h == 0 {
		return "none"
	}
	var b strings.Builder
	if h&HintDeadAny != 0 {
		b.WriteString("dead(")
		first := true
		for i, f := range hintDeadFlags {
			if h&f == 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(hintFieldNames[i])
			first = false
		}
		b.WriteByte(')')
	}
	sep := func() {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
	}
	if h&HintRemat != 0 {
		sep()
		b.WriteString("remat")
	}
	if h&hintReserved != 0 {
		sep()
		b.WriteString("reserved")
	}
	return b.String()
}

// OperandFields reports which of the four register fields (Rd, Rn, Rm, Ra,
// in that order) the instruction actually uses and the register each names.
// A dead-hint flag is only meaningful on a used field: unused fields hold
// zero in the encoding, which would otherwise read as X0.
func (in *Inst) OperandFields() (regs [4]Reg, used [4]bool) {
	regs = [4]Reg{in.Rd, in.Rn, in.Rm, in.Ra}
	switch in.Op {
	case ADD, SUB, MUL, UDIV, SDIV, AND, ORR, EOR, LSLV, LSRV, ASRV,
		FADD, FSUB, FMUL, FDIV, CSEL, CSINC:
		used = [4]bool{true, true, true, false}
	case MADD, FMADD:
		used = [4]bool{true, true, true, true}
	case ADDI, SUBI, ANDI, ORRI, EORI, LSLI, LSRI, ASRI, MOV,
		FNEG, FABS, FSQRT, FMOV, SCVTF, FCVTZS:
		used = [4]bool{true, true, false, false}
	case MOVZ, MOVK:
		used = [4]bool{true, false, false, false}
	case CMP, TST, FCMP:
		used = [4]bool{false, true, true, false}
	case CMPI, CBZ, CBNZ, RET:
		used = [4]bool{false, true, false, false}
	case LDR, LDRW, LDRSW, LDRH, LDRB, STR, STRW, STRH, STRB:
		used = [4]bool{true, true, in.Mode != AddrImm, false}
	}
	// NOP, HALT, YIELD and the label/immediate branches use no register
	// fields (BL's implicit X30 write is not an encoding field, so its
	// deadness is inexpressible and never hinted).
	return regs, used
}

// DeadRegs appends the registers the instruction's dead-hint flags name and
// returns dst. XZR is filtered (it has no retainable value). The result may
// repeat a register when two flagged fields name it; marking dead is
// idempotent, so callers need not deduplicate.
func (in *Inst) DeadRegs(dst []Reg) []Reg {
	if in.Hints&HintDeadAny == 0 {
		return dst
	}
	regs, used := in.OperandFields()
	for i, f := range hintDeadFlags {
		if in.Hints&f != 0 && used[i] && regs[i] != XZR {
			dst = append(dst, regs[i])
		}
	}
	return dst
}
