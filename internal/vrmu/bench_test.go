package vrmu

import (
	"fmt"
	"testing"

	"github.com/virec/virec/internal/isa"
)

// BenchmarkSelectVictim exercises the victim-selection hot path with a
// full tag store under every oracle-free policy, hint-aware ones included.
// The dense ranks scratch and the predicate-based lock check keep this at
// 0 allocs/op — the sim calls this once per register allocation, so a
// per-call map would dominate the profile.
func BenchmarkSelectVictim(b *testing.B) {
	const phys = 96
	for _, pol := range append(AllPolicies(), HintPolicies()...) {
		b.Run(pol.String(), func(b *testing.B) {
			ts := NewTagStore(phys, pol)
			for i := 0; i < phys; i++ {
				ts.Insert(i%4, isa.Reg(i%int(isa.NumRegs)), i)
				ts.Touch(i)
			}
			locked := func(i int) bool { return i < 2 }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := ts.SelectVictim(locked)
				ts.Touch(v) // keep recency state moving between picks
			}
		})
	}
}

// BenchmarkTouch measures the per-operand recency update, which runs for
// every source and destination register of every issued instruction.
func BenchmarkTouch(b *testing.B) {
	for _, phys := range []int{32, 96, 256} {
		b.Run(fmt.Sprintf("phys=%d", phys), func(b *testing.B) {
			ts := NewTagStore(phys, MRTLRU)
			for i := 0; i < phys; i++ {
				ts.Insert(i%4, isa.Reg(i%int(isa.NumRegs)), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.Touch(i % phys)
			}
		})
	}
}

// BenchmarkLookup measures the (thread, arch reg) -> phys CAM probe on
// the dense array layout.
func BenchmarkLookup(b *testing.B) {
	ts := NewTagStore(96, LRC)
	for i := 0; i < 96; i++ {
		ts.Insert(i%4, isa.Reg(i%int(isa.NumRegs)), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Lookup(i%4, isa.Reg(i%int(isa.NumRegs)))
	}
}
