// Package interp is a functional (timing-free) interpreter for the isa
// package. It serves three purposes: producing dynamic instruction traces
// for the trace-driven out-of-order model (Figure 1's OoO baseline),
// cross-checking the pipeline simulator's golden model, and measuring
// dynamic register usage for the Figure-2 characterization.
package interp

import (
	"fmt"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Context is one thread's architectural state.
type Context struct {
	Regs  [isa.NumRegs]uint64
	Flags isa.Flags
	PC    int
}

// Get reads a register (XZR reads zero).
func (c *Context) Get(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return c.Regs[r]
}

// Set writes a register (XZR writes are discarded).
func (c *Context) Set(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.Regs[r] = v
	}
}

// TraceEntry describes one executed instruction, including its committed
// architectural effects — the differential checker compares these fields
// one-for-one against the pipeline's commit stream.
type TraceEntry struct {
	PC   int
	Inst *isa.Inst
	Addr mem.Addr // effective address for loads/stores

	Wrote bool    // a non-XZR register was written
	Rd    isa.Reg // destination register when Wrote
	Val   uint64  // value written when Wrote
	Data  uint64  // store data, masked to the access width
}

// Result summarizes a run.
type Result struct {
	Insts  uint64
	Halted bool
}

// Run executes prog from ctx until HALT or maxInsts instructions. YIELD is
// a no-op functionally. The optional trace callback sees every executed
// instruction in order.
//
//virec:hotpath
func Run(prog *asm.Program, ctx *Context, m *mem.Memory, maxInsts uint64, trace func(TraceEntry)) Result {
	var n uint64
	for n < maxInsts {
		in := prog.At(ctx.PC)
		n++
		entry := TraceEntry{PC: ctx.PC, Inst: in}
		next := ctx.PC + 1

		switch {
		case in.Op == isa.HALT:
			if trace != nil {
				trace(entry)
			}
			return Result{Insts: n, Halted: true}
		case in.Op == isa.NOP, in.Op == isa.YIELD:
			// nothing
		case in.IsLoad():
			addr := mem.Addr(isa.EffAddr(in, ctx.Get(in.Rn), ctx.Get(in.Rm)))
			entry.Addr = addr
			v := isa.LoadExtend(in.Op, m.Read(addr, in.MemBytes()))
			ctx.Set(in.Rd, v)
			if in.Rd != isa.XZR {
				entry.Wrote, entry.Rd, entry.Val = true, in.Rd, v
			}
		case in.IsStore():
			addr := mem.Addr(isa.EffAddr(in, ctx.Get(in.Rn), ctx.Get(in.Rm)))
			entry.Addr = addr
			data := ctx.Get(in.Rd)
			m.Write(addr, in.MemBytes(), data)
			if n := in.MemBytes(); n < 8 {
				data &= 1<<(8*uint(n)) - 1
			}
			entry.Data = data
		case in.IsBranch():
			rn := ctx.Get(in.Rn)
			if in.Op == isa.BL {
				ctx.Set(isa.X30, uint64(ctx.PC+1))
				entry.Wrote, entry.Rd, entry.Val = true, isa.X30, uint64(ctx.PC+1)
			}
			if isa.BranchTaken(in, ctx.Flags, rn) {
				if in.Op == isa.RET {
					next = int(rn)
				} else {
					next = int(in.Target)
				}
			}
		default:
			op1 := ctx.Get(in.Rn)
			if in.Op == isa.MOVK {
				op1 = ctx.Get(in.Rd)
			}
			r := isa.EvalALU(in, op1, ctx.Get(in.Rm), ctx.Get(in.Ra), ctx.Flags)
			if r.WritesReg {
				ctx.Set(in.Rd, r.Value)
				if in.Rd != isa.XZR {
					entry.Wrote, entry.Rd, entry.Val = true, in.Rd, r.Value
				}
			}
			if r.WritesFlag {
				ctx.Flags = r.Flags
			}
		}
		if trace != nil {
			trace(entry)
		}
		ctx.PC = next
	}
	return Result{Insts: n, Halted: false}
}

// MustRun executes to HALT and panics if the instruction budget runs out
// (used by setup code where non-termination is a bug).
func MustRun(prog *asm.Program, ctx *Context, m *mem.Memory, maxInsts uint64) Result {
	r := Run(prog, ctx, m, maxInsts, nil)
	if !r.Halted {
		panic(fmt.Sprintf("interp: %s did not halt within %d instructions", prog.Name, maxInsts))
	}
	return r
}

// DynamicRegUsage runs the program and returns the set of registers the
// executed instructions referenced, weighted by dynamic execution count —
// the measured counterpart of the static Figure-2 analysis.
func DynamicRegUsage(prog *asm.Program, ctx *Context, m *mem.Memory, maxInsts uint64) map[isa.Reg]uint64 {
	counts := make(map[isa.Reg]uint64)
	var buf [6]isa.Reg
	Run(prog, ctx, m, maxInsts, func(e TraceEntry) {
		for _, r := range e.Inst.Regs(buf[:0]) {
			if r != isa.XZR {
				counts[r]++
			}
		}
	})
	return counts
}
