package interp

import (
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// dispatchProg is a load/ALU/branch mix that loops forever (x5 stays 0),
// so every benchmark iteration executes exactly the instruction budget.
// The pointer chase through a pre-seeded ring keeps memory reads on
// mapped pages and the program free of stores: iterations are idempotent,
// so the dispatch loop runs from identical state every time.
func dispatchProg(tb testing.TB) (*asm.Program, *mem.Memory, mem.Addr) {
	tb.Helper()
	prog := asm.MustAssemble("dispatch", `
	loop:
		ldr  x1, [x1]
		add  x2, x2, x1
		add  x3, x3, #3
		sub  x4, x2, x3
		cmp  x5, #2
		b.lt loop
		halt
	`)
	const ringBase, ringLen = mem.Addr(0x1000), 64
	m := mem.NewMemory()
	for i := 0; i < ringLen; i++ {
		next := ringBase + mem.Addr((i+1)%ringLen)*8
		m.Write64(ringBase+mem.Addr(i)*8, uint64(next))
	}
	return prog, m, ringBase
}

// BenchmarkInterpDispatch measures the interpreter loop on a fixed
// instruction budget, untraced and with a no-op trace callback (the form
// difftest's golden side and the oracle recorder use). CI gates both rows
// at zero allocations per run.
func BenchmarkInterpDispatch(b *testing.B) {
	prog, m, ringBase := dispatchProg(b)
	const budget = 1 << 16
	for _, row := range []struct {
		name  string
		trace func(TraceEntry)
	}{
		{"untraced", nil},
		{"traced", func(TraceEntry) {}},
	} {
		b.Run(row.name, func(b *testing.B) {
			var ctx Context
			for i := 0; i < b.N; i++ {
				ctx = Context{}
				ctx.Regs[isa.X1] = uint64(ringBase)
				if res := Run(prog, &ctx, m, budget, row.trace); res.Halted || res.Insts != budget {
					b.Fatalf("dispatch loop exited early: %+v", res)
				}
			}
			b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}
