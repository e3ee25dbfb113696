package regfile

import (
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Software models software context switching (Figure 3a): the core has a
// single physical register bank and every context switch stores the
// outgoing thread's 32 registers and system-register line to memory, then
// loads the incoming thread's, one access per cycle through the dcache
// port. The area is minimal but the switch cost can exceed the memory
// latency being hidden, as the paper notes.
type Software struct {
	base
	bsi *bsi

	bank      [isa.NumRegs]uint64
	owner     int  // thread whose context occupies the bank (-1 none)
	pending   int  // outstanding save/restore transactions
	target    int  // thread being restored (-1 none)
	reloading bool // recovering from an abandoned switch

	// BSI completions, bound once: onSaved retires a save or a system-
	// register load, onRestored installs a restored register.
	onSaved    func(*bsiOp)
	onRestored func(*bsiOp)

	// Switches counts completed context switches (stats).
	Switches uint64
}

// NewSoftware builds a software-switched provider.
func NewSoftware(threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Software {
	p := &Software{
		base:   newBase(dcache, memory, layout, threads),
		bsi:    newBSI(dcache, true), // software save/restore is serial
		owner:  -1,
		target: -1,
	}
	p.onSaved = p.savedDone
	p.onRestored = p.restoredDone
	return p
}

var _ cpu.Provider = (*Software)(nil)

// Acquire succeeds whenever the thread owns the bank and no switch is in
// progress: once a save/restore sequence has started (target set), the
// bank's contents are no longer the running thread's. If the core
// abandoned a prepared switch (the missing load returned first), the
// owner's own context is reloaded before execution continues — the price
// of software switching being irrevocable once the trap handler runs.
//
//virec:hotpath
func (p *Software) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool {
	if p.owner != thread || p.pending > 0 {
		return false
	}
	if p.target == -1 {
		return true
	}
	if !p.reloading {
		// Retarget the in-progress state at the owner itself so a later
		// CanSwitchTo for the abandoned thread restarts a full switch
		// rather than adopting the owner's reloaded bank.
		p.reloading = true
		p.target = thread
		p.restore(thread)
		return false
	}
	// Reload finished.
	p.reloading = false
	p.target = -1
	return true
}

// ReadValue reads the single bank.
//
//virec:hotpath
func (p *Software) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.bank[r]
}

// WriteValue writes the register. The value always reaches the thread's
// memory-resident context (a save sequence may already have snapshotted
// the bank while this instruction was still in flight). The bank itself is
// only updated when no switch to another thread is in progress: once a
// restore of the incoming thread has begun, a late commit from the
// outgoing thread must not clobber the restored context — its value
// survives in the memory context and returns with the thread's next
// restore.
//
//virec:hotpath
func (p *Software) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	p.memory.Write64(p.layout.RegAddr(thread, r), v)
	if p.owner == thread && (p.target == -1 || p.target == thread) {
		p.bank[r] = v
	}
}

// InstDecoded is a no-op.
func (p *Software) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Software) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Software) PipelineFlushed(thread int) {}

// CanSwitchTo reports whether the incoming thread's context is fully
// restored into the bank. The first call for a new target kicks off the
// save/restore sequence.
func (p *Software) CanSwitchTo(next int) bool {
	if p.owner == next || p.target == next {
		return p.pending == 0
	}
	if p.pending == 0 {
		p.beginSwitch(next)
	}
	return false
}

// beginSwitch enqueues the save of the current owner followed by the
// restore of next. Register values move through the functional memory at
// enqueue/complete time; the BSI models the timing.
func (p *Software) beginSwitch(next int) {
	p.target = next
	if p.owner >= 0 && !p.halted[p.owner] {
		out := p.owner
		for r := 0; r < isa.NumRegs; r++ {
			addr := p.layout.RegAddr(out, isa.Reg(r))
			p.memory.Write64(addr, p.bank[r])
			p.pending++
			p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, onDone: p.onSaved})
		}
		sys := p.layout.SysRegAddr(out)
		p.pending++
		p.bsi.pushStore(bsiOp{addr: sys, kind: mem.Write, onDone: p.onSaved})
	}
	p.restore(next)
}

// restore loads thread's context from the reserved region into the bank.
func (p *Software) restore(thread int) {
	for r := 0; r < isa.NumRegs; r++ {
		p.pending++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, isa.Reg(r)), kind: mem.Read,
			slot: int32(r), onDone: p.onRestored})
	}
	sys := p.layout.SysRegAddr(thread)
	p.pending++
	p.bsi.pushLoad(bsiOp{addr: sys, kind: mem.Read, onDone: p.onSaved})
}

// savedDone retires one save or system-register transaction.
func (p *Software) savedDone(*bsiOp) { p.pending-- }

// restoredDone installs a restored register into bank slot op.slot.
func (p *Software) restoredDone(op *bsiOp) {
	p.bank[op.slot] = p.memory.Read64(op.addr)
	p.pending--
}

// BlockSwitch never masks; the save/restore cost is in CanSwitchTo.
func (p *Software) BlockSwitch() bool { return false }

// OnSwitch installs the new owner.
func (p *Software) OnSwitch(prev, next int) {
	p.owner = next
	p.target = -1
	p.reloading = false
	p.Switches++
}

// ThreadStarted is handled by the restore path in CanSwitchTo.
func (p *Software) ThreadStarted(thread int) {}

// ThreadHalted marks the thread dead so its context is not saved again.
func (p *Software) ThreadHalted(thread int) {
	p.halted[thread] = true
	if p.owner == thread {
		p.owner = -1
	}
}

// Tick drives the save/restore traffic.
func (p *Software) Tick(cycle uint64) { p.bsi.Tick(cycle) }
