package isa

import "math"

// Flags is the NZCV condition-flag state produced by CMP/CMPI/TST and
// consumed by conditional branches and selects.
type Flags struct {
	N bool // negative
	Z bool // zero
	C bool // carry (no borrow for subtraction)
	V bool // signed overflow
}

// subFlags computes the NZCV flags of a - b, AArch64 style.
func subFlags(a, b uint64) Flags {
	r := a - b
	sa, sb, sr := int64(a) < 0, int64(b) < 0, int64(r) < 0
	return Flags{
		N: sr,
		Z: r == 0,
		C: a >= b,
		V: sa != sb && sr != sa,
	}
}

// logicFlags computes NZ (and clears CV) for a logical result.
func logicFlags(r uint64) Flags {
	return Flags{N: int64(r) < 0, Z: r == 0}
}

// Holds reports whether condition c holds under flags f.
func (f Flags) Holds(c Cond) bool {
	switch c {
	case CondEQ:
		return f.Z
	case CondNE:
		return !f.Z
	case CondLT:
		return f.N != f.V
	case CondLE:
		return f.Z || f.N != f.V
	case CondGT:
		return !f.Z && f.N == f.V
	case CondGE:
		return f.N == f.V
	case CondLO:
		return !f.C
	case CondHS:
		return f.C
	}
	return false
}

// ALUResult is the outcome of evaluating a non-memory instruction.
type ALUResult struct {
	Value      uint64 // value destined for Rd (if the op writes a register)
	Flags      Flags  // new flag state (if SetsFlags)
	WritesReg  bool
	WritesFlag bool
}

// EvalALU evaluates an ALU/move/compare/select instruction given its
// operand values. op1/op2/op3 correspond to Rn/Rm/Ra (or Rd for MOVK).
// Loads, stores and branches are not handled here.
func EvalALU(in *Inst, op1, op2, op3 uint64, flags Flags) ALUResult {
	switch in.Op {
	case ADD:
		return ALUResult{Value: op1 + op2, WritesReg: true}
	case SUB:
		return ALUResult{Value: op1 - op2, WritesReg: true}
	case MUL:
		return ALUResult{Value: op1 * op2, WritesReg: true}
	case MADD:
		return ALUResult{Value: op3 + op1*op2, WritesReg: true}
	case UDIV:
		if op2 == 0 {
			return ALUResult{Value: 0, WritesReg: true}
		}
		return ALUResult{Value: op1 / op2, WritesReg: true}
	case SDIV:
		if op2 == 0 {
			return ALUResult{Value: 0, WritesReg: true}
		}
		return ALUResult{Value: uint64(int64(op1) / int64(op2)), WritesReg: true}
	case AND:
		return ALUResult{Value: op1 & op2, WritesReg: true}
	case ORR:
		return ALUResult{Value: op1 | op2, WritesReg: true}
	case EOR:
		return ALUResult{Value: op1 ^ op2, WritesReg: true}
	case LSLV:
		return ALUResult{Value: op1 << (op2 & 63), WritesReg: true}
	case LSRV:
		return ALUResult{Value: op1 >> (op2 & 63), WritesReg: true}
	case ASRV:
		return ALUResult{Value: uint64(int64(op1) >> (op2 & 63)), WritesReg: true}
	case ADDI:
		return ALUResult{Value: op1 + uint64(in.Imm), WritesReg: true}
	case SUBI:
		return ALUResult{Value: op1 - uint64(in.Imm), WritesReg: true}
	case ANDI:
		return ALUResult{Value: op1 & uint64(in.Imm), WritesReg: true}
	case ORRI:
		return ALUResult{Value: op1 | uint64(in.Imm), WritesReg: true}
	case EORI:
		return ALUResult{Value: op1 ^ uint64(in.Imm), WritesReg: true}
	case LSLI:
		return ALUResult{Value: op1 << (in.Shift & 63), WritesReg: true}
	case LSRI:
		return ALUResult{Value: op1 >> (in.Shift & 63), WritesReg: true}
	case ASRI:
		return ALUResult{Value: uint64(int64(op1) >> (in.Shift & 63)), WritesReg: true}
	case MOV:
		return ALUResult{Value: op1, WritesReg: true}
	case MOVZ:
		return ALUResult{Value: uint64(in.Imm&0xffff) << (16 * uint(in.Shift)), WritesReg: true}
	case MOVK:
		sh := 16 * uint(in.Shift)
		mask := uint64(0xffff) << sh
		return ALUResult{Value: (op1 &^ mask) | uint64(in.Imm&0xffff)<<sh, WritesReg: true}
	case CMP:
		return ALUResult{Flags: subFlags(op1, op2), WritesFlag: true}
	case CMPI:
		return ALUResult{Flags: subFlags(op1, uint64(in.Imm)), WritesFlag: true}
	case TST:
		return ALUResult{Flags: logicFlags(op1 & op2), WritesFlag: true}
	case CSEL:
		if flags.Holds(in.Cond) {
			return ALUResult{Value: op1, WritesReg: true}
		}
		return ALUResult{Value: op2, WritesReg: true}
	case CSINC:
		if flags.Holds(in.Cond) {
			return ALUResult{Value: op1, WritesReg: true}
		}
		return ALUResult{Value: op2 + 1, WritesReg: true}

	case FADD:
		return fpResult(f64(op1) + f64(op2))
	case FSUB:
		return fpResult(f64(op1) - f64(op2))
	case FMUL:
		return fpResult(f64(op1) * f64(op2))
	case FDIV:
		return fpResult(f64(op1) / f64(op2))
	case FMADD:
		return fpResult(f64(op3) + f64(op1)*f64(op2))
	case FNEG:
		return fpResult(-f64(op1))
	case FABS:
		return fpResult(math.Abs(f64(op1)))
	case FSQRT:
		return fpResult(math.Sqrt(f64(op1)))
	case FMOV:
		return ALUResult{Value: op1, WritesReg: true}
	case SCVTF:
		return fpResult(float64(int64(op1)))
	case FCVTZS:
		return ALUResult{Value: uint64(int64(math.Trunc(f64(op1)))), WritesReg: true}
	case FCMP:
		return ALUResult{Flags: fcmpFlags(f64(op1), f64(op2)), WritesFlag: true}
	}
	return ALUResult{}
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }

func fpResult(v float64) ALUResult {
	return ALUResult{Value: math.Float64bits(v), WritesReg: true}
}

// fcmpFlags mirrors AArch64 FCMP NZCV encoding: less => N, equal => Z+C,
// greater => C, unordered => C+V.
func fcmpFlags(a, b float64) Flags {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return Flags{C: true, V: true}
	case a < b:
		return Flags{N: true}
	case a == b:
		return Flags{Z: true, C: true}
	default:
		return Flags{C: true}
	}
}

// EffAddr computes a load/store effective address from its base and
// (optional) index operand values.
func EffAddr(in *Inst, base, index uint64) uint64 {
	switch in.Mode {
	case AddrImm:
		return base + uint64(in.Imm)
	case AddrReg:
		return base + index
	default: // AddrRegShift
		return base + index<<uint(in.Shift)
	}
}

// BranchTaken reports whether a branch redirects control flow given the
// flag state and the value of Rn (for CBZ/CBNZ).
func BranchTaken(in *Inst, flags Flags, rn uint64) bool {
	switch in.Op {
	case B, BL, RET:
		return true
	case BEQ:
		return flags.Holds(CondEQ)
	case BNE:
		return flags.Holds(CondNE)
	case BLT:
		return flags.Holds(CondLT)
	case BLE:
		return flags.Holds(CondLE)
	case BGT:
		return flags.Holds(CondGT)
	case BGE:
		return flags.Holds(CondGE)
	case BLO:
		return flags.Holds(CondLO)
	case BHS:
		return flags.Holds(CondHS)
	case CBZ:
		return rn == 0
	case CBNZ:
		return rn != 0
	}
	return false
}

// LoadExtend widens raw little-endian bytes read from memory according to
// the load op's width and signedness.
func LoadExtend(op Op, raw uint64) uint64 {
	switch op {
	case LDR:
		return raw
	case LDRW:
		return raw & 0xffffffff
	case LDRSW:
		return uint64(int64(int32(uint32(raw))))
	case LDRH:
		return raw & 0xffff
	case LDRB:
		return raw & 0xff
	}
	return raw
}
