package regfile

import (
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// PrefetchKind selects the prefetching strategy of the Figure-9
// comparison.
type PrefetchKind uint8

// Prefetch strategies.
const (
	// PrefetchFull moves the complete 32-register context on every
	// rotation: all registers of the outgoing thread are stored and all
	// registers of the incoming thread are loaded.
	PrefetchFull PrefetchKind = iota
	// PrefetchExact moves only the registers the incoming thread will
	// actually use before its next switch, assuming an oracle predictor
	// (approximated by the workload's per-thread active register set).
	PrefetchExact
)

func (k PrefetchKind) String() string {
	if k == PrefetchFull {
		return "prefetch-full"
	}
	return "prefetch-exact"
}

// Prefetch implements double-buffer register prefetching: two physical
// banks, one serving the running thread while the other is reloaded with
// the round-robin successor's context. A switch stalls until the incoming
// bank is complete; after the switch the vacated bank's contents are
// stored back and the next successor's context is prefetched into it,
// overlapping the new thread's execution.
type Prefetch struct {
	base
	bsi  *bsi
	kind PrefetchKind

	banks    [2][isa.NumRegs]uint64
	bankOf   [2]int // thread held by each bank, -1 empty
	loading  [2]int // outstanding loads into each bank
	resident [2][isa.NumRegs]bool

	// usedSet is the oracle's per-thread register set for PrefetchExact.
	usedSet [][]isa.Reg

	// OnDemandFills counts fills for registers the oracle missed.
	OnDemandFills uint64
	onDemand      map[regKey]bool
}

// NewPrefetch builds a prefetching provider.
func NewPrefetch(kind PrefetchKind, threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Prefetch {
	p := &Prefetch{
		base:     newBase(dcache, memory, layout, threads),
		bsi:      newBSI(dcache, true),
		kind:     kind,
		usedSet:  make([][]isa.Reg, threads),
		onDemand: make(map[regKey]bool),
	}
	p.bankOf[0], p.bankOf[1] = -1, -1
	return p
}

var _ cpu.Provider = (*Prefetch)(nil)

// SetUsedRegs installs the oracle's predicted register set for a thread
// (PrefetchExact); unset threads fall back to the full context.
func (p *Prefetch) SetUsedRegs(thread int, regs []isa.Reg) {
	cp := make([]isa.Reg, len(regs))
	copy(cp, regs)
	p.usedSet[thread] = cp
}

// contextOf returns the register set moved for a thread.
func (p *Prefetch) contextOf(thread int) []isa.Reg {
	if p.kind == PrefetchExact && p.usedSet[thread] != nil {
		return p.usedSet[thread]
	}
	all := make([]isa.Reg, isa.NumRegs)
	for i := range all {
		all[i] = isa.Reg(i)
	}
	return all
}

// bankIdx returns the bank holding thread, or -1.
func (p *Prefetch) bankIdx(thread int) int {
	for b := 0; b < 2; b++ {
		if p.bankOf[b] == thread {
			return b
		}
	}
	return -1
}

// Acquire succeeds when the thread's bank holds every needed source; a
// register outside the oracle set triggers an on-demand fill (counted —
// a real design would mispredict here).
func (p *Prefetch) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool {
	b := p.bankIdx(thread)
	if b < 0 || p.loading[b] > 0 {
		return false
	}
	ready := true
	for _, r := range needSrcs {
		if r == isa.XZR || p.resident[b][r] {
			continue
		}
		ready = false
		key := regKey{thread, r}
		if p.onDemand[key] {
			continue
		}
		p.onDemand[key] = true
		p.OnDemandFills++
		addr := p.layout.RegAddr(thread, r)
		rr := r
		p.bsi.pushLoad(bsiOp{addr: addr, kind: mem.Read,
			onDone: func(*bsiOp) {
				if p.bankOf[b] == thread {
					p.banks[b][rr] = p.memory.Read64(addr)
					p.resident[b][rr] = true
				}
				delete(p.onDemand, key)
			}})
	}
	// Destinations are writable without their old value.
	var dstBuf [2]isa.Reg
	for _, d := range in.DstRegs(dstBuf[:0]) {
		if d != isa.XZR {
			p.resident[b][d] = true
		}
	}
	return ready
}

// ReadValue reads the thread's bank.
func (p *Prefetch) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.banks[p.bankIdx(thread)][r]
}

// WriteValue writes the thread's bank (and functional memory on halt-less
// eviction paths, handled in storeBank).
func (p *Prefetch) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	if b := p.bankIdx(thread); b >= 0 {
		p.banks[b][r] = v
		p.resident[b][r] = true
	} else {
		// The thread's bank was already recycled (it halted mid-commit);
		// write through to the context in memory.
		p.memory.Write64(p.layout.RegAddr(thread, r), v)
	}
}

// InstDecoded is a no-op.
func (p *Prefetch) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Prefetch) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Prefetch) PipelineFlushed(thread int) {}

// CanSwitchTo requires the incoming thread's bank to be fully loaded; the
// first query for an unbuffered thread claims and begins loading a bank.
func (p *Prefetch) CanSwitchTo(next int) bool {
	if b := p.bankIdx(next); b >= 0 {
		return p.loading[b] == 0
	}
	// Claim the bank not holding the current thread.
	cur := -1
	for bb := 0; bb < 2; bb++ {
		if p.bankOf[bb] >= 0 && !p.halted[p.bankOf[bb]] && p.bankOf[bb] != next {
			cur = bb
		}
	}
	victim := 0
	if cur == 0 {
		victim = 1
	}
	p.recycleBank(victim, next)
	return false
}

// recycleBank stores the old occupant's context back to memory and loads
// thread's context into bank b.
func (p *Prefetch) recycleBank(b, thread int) {
	if old := p.bankOf[b]; old >= 0 && !p.halted[old] {
		p.storeBank(b, old)
	}
	p.bankOf[b] = thread
	p.resident[b] = [isa.NumRegs]bool{}
	for _, r := range p.contextOf(thread) {
		rr := r
		addr := p.layout.RegAddr(thread, rr)
		p.loading[b]++
		p.bsi.pushLoad(bsiOp{addr: addr, kind: mem.Read,
			onDone: func(*bsiOp) {
				if p.bankOf[b] == thread {
					p.banks[b][rr] = p.memory.Read64(addr)
					p.resident[b][rr] = true
				}
				p.loading[b]--
			}})
	}
	// System-register line travels with the context.
	p.loading[b]++
	p.bsi.pushLoad(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Read,
		onDone: func(*bsiOp) { p.loading[b]-- }})
}

// storeBank writes a thread's context back to the reserved region:
// functional values immediately, timing through the BSI.
func (p *Prefetch) storeBank(b, thread int) {
	for _, r := range p.contextOf(thread) {
		addr := p.layout.RegAddr(thread, r)
		p.memory.Write64(addr, p.banks[b][r])
		p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write})
	}
	p.bsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Write})
}

// BlockSwitch never masks: switch readiness is in CanSwitchTo.
func (p *Prefetch) BlockSwitch() bool { return false }

// OnSwitch starts prefetching the round-robin successor into the bank
// vacated by prev, overlapping next's execution.
func (p *Prefetch) OnSwitch(prev, next int) {
	succ := p.nextOf(next)
	if succ < 0 || succ == next || p.bankIdx(succ) >= 0 {
		return
	}
	b := p.bankIdx(prev)
	if b < 0 {
		for bb := 0; bb < 2; bb++ {
			if p.bankOf[bb] != next {
				b = bb
			}
		}
	}
	if b >= 0 && p.bankOf[b] != next {
		p.recycleBank(b, succ)
	}
}

// ThreadStarted is handled by CanSwitchTo's bank claim.
func (p *Prefetch) ThreadStarted(thread int) {}

// ThreadHalted releases the thread's bank without storing it back.
func (p *Prefetch) ThreadHalted(thread int) {
	p.halted[thread] = true
	if b := p.bankIdx(thread); b >= 0 {
		p.bankOf[b] = -1
		p.resident[b] = [isa.NumRegs]bool{}
	}
}

// Tick drives the prefetch traffic.
func (p *Prefetch) Tick(cycle uint64) { p.bsi.Tick(cycle) }
