package regfile

import (
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Banked stores one complete register bank per hardware thread — the
// paper's banked-core baseline (Figure 3b). Register accesses never miss
// and context switches select another bank with no transfer cost; the
// price is area (Figure 14). The initial context of each thread is
// fetched from the reserved backing region when the thread is first
// scheduled, matching the paper's task-offload mechanism.
type Banked struct {
	base
	bsi     *bsi
	banks   [][isa.NumRegs]uint64
	loading []int // outstanding initial-context loads per thread
}

// NewBanked builds a banked provider with one bank per thread.
func NewBanked(threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Banked {
	return &Banked{
		base:    newBase(dcache, memory, layout, threads),
		bsi:     newBSI(dcache, true),
		banks:   make([][isa.NumRegs]uint64, threads),
		loading: make([]int, threads),
	}
}

var _ cpu.Provider = (*Banked)(nil)

// Acquire always succeeds: every register of every thread is resident.
func (p *Banked) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool { return true }

// ReadValue returns the banked value.
//
//virec:hotpath
func (p *Banked) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.banks[thread][r]
}

// WriteValue updates the banked value.
//
//virec:hotpath
func (p *Banked) WriteValue(thread int, r isa.Reg, v uint64) {
	if r != isa.XZR {
		p.banks[thread][r] = v
	}
}

// InstDecoded is a no-op: there is no cache state to track.
func (p *Banked) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Banked) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Banked) PipelineFlushed(thread int) {}

// CanSwitchTo allows a switch once the thread's initial context load has
// finished (instant for already-running threads).
func (p *Banked) CanSwitchTo(next int) bool { return p.loading[next] == 0 }

// BlockSwitch never masks switches.
func (p *Banked) BlockSwitch() bool { return false }

// SkipQuiescent reports whether Tick would be a pure no-op (cpu.SkipSupport).
func (p *Banked) SkipQuiescent() bool { return p.bsi.quiet() }

// PeekCanSwitch previews CanSwitchTo without side effects; the banked
// readiness check is already pure.
func (p *Banked) PeekCanSwitch(next int) (ready, pure bool) {
	return p.loading[next] == 0, true
}

// PeekAcquire previews a repeated Acquire, which for a banked file is
// always a stateless success.
func (p *Banked) PeekAcquire(thread int, in *isa.Inst, needSrcs []isa.Reg) (ready, pure bool) {
	return true, true
}

// OnSwitch is a bank-select: free.
func (p *Banked) OnSwitch(prev, next int) {}

// ThreadStarted fetches the offloaded context (32 GP registers plus the
// system-register line) from the reserved region into the bank.
func (p *Banked) ThreadStarted(thread int) {
	for r := 0; r < isa.NumRegs; r++ {
		rr := isa.Reg(r)
		addr := p.layout.RegAddr(thread, rr)
		p.loading[thread]++
		p.bsi.pushLoad(bsiOp{
			addr: addr,
			kind: mem.Read,
			onDone: func(*bsiOp) {
				p.banks[thread][rr] = p.memory.Read64(addr)
				p.loading[thread]--
			},
		})
	}
	p.loading[thread]++
	sys := p.layout.SysRegAddr(thread)
	p.bsi.pushLoad(bsiOp{
		addr: sys,
		kind: mem.Read,
		onDone: func(*bsiOp) {
			p.loading[thread]--
		},
	})
}

// ThreadHalted drops the bank.
func (p *Banked) ThreadHalted(thread int) {
	p.halted[thread] = true
}

// Tick drives the context-load traffic.
func (p *Banked) Tick(cycle uint64) { p.bsi.Tick(cycle) }
