package regfile

import (
	"testing"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/vrmu"
)

const regBase = mem.Addr(0x100000)

// harness bundles a provider's dependencies over an always-accepting
// fixed-latency device, so provider mechanics can be tested in isolation
// from the pipeline.
type harness struct {
	dev    *mem.DelayDevice
	memory *mem.Memory
	layout cpu.RegLayout
	cycle  uint64
}

func newHarness(latency uint64) *harness {
	return &harness{
		dev:    mem.NewDelayDevice(latency),
		memory: mem.NewMemory(),
		layout: cpu.RegLayout{Base: regBase},
	}
}

// tick advances provider and device n cycles.
func (h *harness) tick(p cpu.Provider, n int) {
	for i := 0; i < n; i++ {
		h.cycle++
		p.Tick(h.cycle)
		h.dev.Tick(h.cycle)
	}
}

// seed writes an initial register value to the backing region.
func (h *harness) seed(thread int, r isa.Reg, v uint64) {
	h.memory.Write64(h.layout.RegAddr(thread, r), v)
}

func TestBankedInitialContextLoad(t *testing.T) {
	h := newHarness(10)
	p := NewBanked(2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X5, 777)
	p.ThreadStarted(0)
	if p.CanSwitchTo(0) {
		t.Error("switch must wait for the initial context load")
	}
	h.tick(p, 100)
	if !p.CanSwitchTo(0) {
		t.Fatal("context load never completed")
	}
	if got := p.ReadValue(0, isa.X5); got != 777 {
		t.Errorf("x5 = %d, want 777", got)
	}
}

func TestBankedIsolation(t *testing.T) {
	h := newHarness(1)
	p := NewBanked(2, h.dev, h.memory, h.layout)
	p.WriteValue(0, isa.X1, 10)
	p.WriteValue(1, isa.X1, 20)
	if p.ReadValue(0, isa.X1) != 10 || p.ReadValue(1, isa.X1) != 20 {
		t.Error("banks must be per-thread")
	}
	if p.ReadValue(0, isa.XZR) != 0 {
		t.Error("XZR reads zero")
	}
}

func TestViReCFillFromBackingStore(t *testing.T) {
	h := newHarness(10)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X3, 1234)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X3, Imm: 1}
	need := []isa.Reg{isa.X3}
	if p.Acquire(0, in, need) {
		t.Fatal("first Acquire must miss (fill needed)")
	}
	for i := 0; i < 200 && !p.Acquire(0, in, need); i++ {
		h.tick(p, 1)
	}
	if !p.Acquire(0, in, need) {
		t.Fatal("fill never completed")
	}
	if got := p.ReadValue(0, isa.X3); got != 1234 {
		t.Errorf("filled x3 = %d, want 1234", got)
	}
	// The destination was allocated with a dummy; a commit write sticks.
	p.InstDecoded(0, 1, in)
	p.WriteValue(0, isa.X4, 99)
	p.InstCommitted(0, 1)
	if got := p.ReadValue(0, isa.X4); got != 99 {
		t.Errorf("x4 = %d, want 99", got)
	}
}

func TestViReCSpillRoundTrip(t *testing.T) {
	// Fill x0..x7 for thread 0 into an 8-entry RF, write values, then
	// force evictions by touching thread 1: the spilled values must be
	// recoverable from the backing store.
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	for r := isa.Reg(0); r < 8; r++ {
		in := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: int64(r)}
		for i := 0; i < 100 && !p.Acquire(0, in, nil); i++ {
			h.tick(p, 1)
		}
		p.InstDecoded(0, uint64(r)+1, in)
		p.WriteValue(0, r, uint64(100+r))
		p.InstCommitted(0, uint64(r)+1)
	}
	p.OnSwitch(0, 1)
	// Thread 1 acquires its own registers, evicting thread 0's.
	seq := uint64(100)
	for r := isa.Reg(0); r < 8; r++ {
		h.seed(1, r, uint64(200+r))
		in := &isa.Inst{Op: isa.ADDI, Rd: isa.X9, Rn: r, Imm: 0}
		need := []isa.Reg{r}
		for i := 0; i < 300 && !p.Acquire(1, in, need); i++ {
			h.tick(p, 1)
		}
		if !p.Acquire(1, in, need) {
			t.Fatalf("thread 1 fill of %s never completed", r)
		}
		seq++
		p.InstDecoded(1, seq, in)
		p.InstCommitted(1, seq)
	}
	h.tick(p, 100) // drain spills
	for r := isa.Reg(0); r < 8; r++ {
		if got := h.memory.Read64(h.layout.RegAddr(0, r)); got != uint64(100+r) {
			t.Errorf("spilled mem[t0.%s] = %d, want %d", r, got, 100+r)
		}
	}
}

func TestViReCBlockSwitchDuringFill(t *testing.T) {
	h := newHarness(50)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X3, Imm: 1}
	p.Acquire(0, in, []isa.Reg{isa.X3})
	h.tick(p, 2) // fill issued, outstanding
	if !p.BlockSwitch() {
		t.Error("switches must be masked while a fill is outstanding")
	}
	h.tick(p, 200)
	if p.BlockSwitch() {
		t.Error("mask must clear once the BSI drains")
	}
}

func TestViReCSysregPingPong(t *testing.T) {
	h := newHarness(10)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 4, h.dev, h.memory, h.layout)
	// First switch target: needs a sysreg load.
	if p.CanSwitchTo(0) {
		t.Error("first switch must wait for system registers")
	}
	h.tick(p, 100)
	if !p.CanSwitchTo(0) {
		t.Fatal("sysreg load never completed")
	}
	p.OnSwitch(-1, 0)
	// The successor (thread 1) is prefetched during execution.
	h.tick(p, 100)
	if !p.CanSwitchTo(1) {
		t.Error("next thread's sysregs must be prefetched by the ping-pong buffer")
	}
}

func TestViReCHaltReleasesState(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	for i := 0; i < 100 && !p.Acquire(0, in, nil); i++ {
		h.tick(p, 1)
	}
	p.InstDecoded(0, 1, in)
	p.InstCommitted(0, 1)
	if p.Tags().Occupancy() == 0 {
		t.Fatal("expected resident registers")
	}
	p.ThreadHalted(0)
	if p.Tags().Occupancy() != 0 {
		t.Errorf("halted thread left %d registers resident", p.Tags().Occupancy())
	}
}

func TestSoftwareSwitchCost(t *testing.T) {
	h := newHarness(2)
	p := NewSoftware(2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X1, 11)
	h.seed(1, isa.X1, 22)
	// Restore thread 0 (no save: bank empty).
	start := h.cycle
	for !p.CanSwitchTo(0) {
		h.tick(p, 1)
		if h.cycle > start+10000 {
			t.Fatal("restore never completed")
		}
	}
	firstCost := h.cycle - start
	// One register per cycle through the port: 33 loads minimum.
	if firstCost < 33 {
		t.Errorf("restore cost %d cycles, want >= 33 (one access per register)", firstCost)
	}
	p.OnSwitch(-1, 0)
	if got := p.ReadValue(0, isa.X1); got != 11 {
		t.Errorf("restored x1 = %d, want 11", got)
	}
	// Switch to thread 1: save + restore, at least 66 accesses.
	start = h.cycle
	for !p.CanSwitchTo(1) {
		h.tick(p, 1)
		if h.cycle > start+10000 {
			t.Fatal("switch never completed")
		}
	}
	if cost := h.cycle - start; cost < 66 {
		t.Errorf("full switch cost %d cycles, want >= 66", cost)
	}
	p.OnSwitch(0, 1)
	if got := p.ReadValue(1, isa.X1); got != 22 {
		t.Errorf("thread 1 x1 = %d, want 22", got)
	}
	// Thread 0's context was saved.
	if got := h.memory.Read64(h.layout.RegAddr(0, isa.X1)); got != 11 {
		t.Errorf("saved t0.x1 = %d, want 11", got)
	}
}

func TestPrefetchDoubleBuffer(t *testing.T) {
	h := newHarness(2)
	p := NewPrefetch(PrefetchFull, 3, h.dev, h.memory, h.layout)
	for th := 0; th < 3; th++ {
		h.seed(th, isa.X2, uint64(th*10))
	}
	for i := 0; i < 1000 && !p.CanSwitchTo(0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0)
	if got := p.ReadValue(0, isa.X2); got != 0 {
		t.Errorf("t0.x2 = %d, want 0", got)
	}
	// Thread 1 should be prefetched into the other bank during t0's run.
	for i := 0; i < 1000 && !p.CanSwitchTo(1); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(0, 1)
	if got := p.ReadValue(1, isa.X2); got != 10 {
		t.Errorf("t1.x2 = %d, want 10", got)
	}
	// Rotating on: thread 2 replaces thread 0's bank.
	for i := 0; i < 1000 && !p.CanSwitchTo(2); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(1, 2)
	if got := p.ReadValue(2, isa.X2); got != 20 {
		t.Errorf("t2.x2 = %d, want 20", got)
	}
}

func TestPrefetchExactOnDemandFallback(t *testing.T) {
	h := newHarness(2)
	p := NewPrefetch(PrefetchExact, 2, h.dev, h.memory, h.layout)
	p.SetUsedRegs(0, []isa.Reg{isa.X1}) // oracle misses x2
	h.seed(0, isa.X1, 5)
	h.seed(0, isa.X2, 6)
	for i := 0; i < 1000 && !p.CanSwitchTo(0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X3, Rn: isa.X2, Imm: 0}
	need := []isa.Reg{isa.X2}
	if p.Acquire(0, in, need) {
		t.Fatal("x2 outside the oracle set must miss initially")
	}
	for i := 0; i < 1000 && !p.Acquire(0, in, need); i++ {
		h.tick(p, 1)
	}
	if got := p.ReadValue(0, isa.X2); got != 6 {
		t.Errorf("on-demand x2 = %d, want 6", got)
	}
	if p.OnDemandFills != 1 {
		t.Errorf("OnDemandFills = %d, want 1", p.OnDemandFills)
	}
}

func TestBSIPrioritizesLoads(t *testing.T) {
	dev := mem.NewDelayDevice(5)
	b := newBSI(dev, true)
	var order []string
	b.pushStore(bsiOp{addr: regBase, kind: mem.Write,
		onDone: func(*bsiOp) { order = append(order, "store") }})
	b.pushLoad(bsiOp{addr: regBase + 8, kind: mem.Read,
		onDone: func(*bsiOp) { order = append(order, "load") }})
	for cy := uint64(1); cy < 50; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if len(order) != 2 || order[0] != "load" {
		t.Errorf("completion order = %v, want load first", order)
	}
}

func TestBlockingBSISerializes(t *testing.T) {
	dev := mem.NewDelayDevice(10)
	b := newBSI(dev, false) // blocking
	done := 0
	for i := 0; i < 3; i++ {
		b.pushLoad(bsiOp{addr: regBase + mem.Addr(8*i), kind: mem.Read,
			onDone: func(*bsiOp) { done++ }})
	}
	// After 15 cycles only the first transaction can have completed.
	for cy := uint64(1); cy <= 15; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if done != 1 {
		t.Errorf("blocking BSI completed %d ops in 15 cycles, want 1", done)
	}
	for cy := uint64(16); cy <= 100; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if done != 3 {
		t.Errorf("blocking BSI completed %d ops, want 3", done)
	}
}

func TestNextOfSkipsHalted(t *testing.T) {
	b := newBase(nil, nil, cpu.RegLayout{}, 4)
	if got := b.nextOf(0); got != 1 {
		t.Errorf("nextOf(0) = %d, want 1", got)
	}
	b.halted[1] = true
	if got := b.nextOf(0); got != 2 {
		t.Errorf("nextOf(0) with t1 halted = %d, want 2", got)
	}
	b.halted[0], b.halted[2], b.halted[3] = true, true, true
	if got := b.nextOf(0); got != -1 {
		t.Errorf("nextOf with all halted = %d, want -1", got)
	}
	if b.liveThreads() != 0 {
		t.Errorf("liveThreads = %d, want 0", b.liveThreads())
	}
}

func TestViReCGroupEviction(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC, GroupEvict: true},
		2, h.dev, h.memory, h.layout)
	// Fill thread 0's x0..x7 (one backing line) and commit values.
	for r := isa.Reg(0); r < 8; r++ {
		in := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: int64(r)}
		for i := 0; i < 100 && !p.Acquire(0, in, nil); i++ {
			h.tick(p, 1)
		}
		p.InstDecoded(0, uint64(r)+1, in)
		p.WriteValue(0, r, 300+uint64(r))
		p.InstCommitted(0, uint64(r)+1)
	}
	p.OnSwitch(0, 1)
	// One miss from thread 1 should group-evict several of thread 0's
	// same-line registers at once.
	h.seed(1, isa.X9, 1)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X10, Rn: isa.X9, Imm: 0}
	need := []isa.Reg{isa.X9}
	for i := 0; i < 300 && !p.Acquire(1, in, need); i++ {
		h.tick(p, 1)
	}
	if p.GroupEvictions == 0 {
		t.Error("group eviction never triggered")
	}
	h.tick(p, 200) // drain spills
	for r := isa.Reg(0); r < 8; r++ {
		if p.Tags().Contains(0, r) {
			continue // survivors keep their values in the RF
		}
		if got := h.memory.Read64(h.layout.RegAddr(0, r)); got != 300+uint64(r) {
			t.Errorf("group-evicted t0.%s spilled %d, want %d", r, got, 300+uint64(r))
		}
	}
}

func TestViReCPrefetchNext(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 16, Policy: vrmu.LRC, PrefetchNext: true},
		3, h.dev, h.memory, h.layout)
	p.SetPrefetchRegs(1, []isa.Reg{isa.X2, isa.X3})
	h.seed(1, isa.X2, 42)
	h.seed(1, isa.X3, 43)
	// Switching -1 -> 0 prefetches the successor (thread 1).
	for i := 0; i < 500 && !p.CanSwitchTo(0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0)
	h.tick(p, 200)
	if p.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if !p.Tags().Contains(1, isa.X2) || !p.Tags().Contains(1, isa.X3) {
		t.Error("prefetched registers not resident")
	}
	// When thread 1 runs, its prefetched registers hit with real values.
	p.OnSwitch(0, 1)
	in := &isa.Inst{Op: isa.ADD, Rd: isa.X4, Rn: isa.X2, Rm: isa.X3}
	need := []isa.Reg{isa.X2, isa.X3}
	if !p.Acquire(1, in, need) {
		t.Fatal("prefetched registers must hit")
	}
	if got := p.ReadValue(1, isa.X2); got != 42 {
		t.Errorf("prefetched x2 = %d, want 42", got)
	}
}

func TestViReCCommitReallocAfterEviction(t *testing.T) {
	// A register evicted between decode and commit is re-allocated when
	// the commit writes it (allocate-on-write).
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	for i := 0; i < 100 && !p.Acquire(0, in, nil); i++ {
		h.tick(p, 1)
	}
	p.InstDecoded(0, 1, in)
	// The context switch flushes the in-flight instruction (it will
	// replay); force x1's eviction by filling the RF with thread 1
	// registers, then deliver the commit-time write anyway (the pipeline
	// does this when the instruction commits post-replay while its
	// register has been displaced).
	p.PipelineFlushed(0)
	p.OnSwitch(0, 1)
	seq := uint64(10)
	for r := isa.Reg(0); r < 8; r++ {
		in2 := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: 1}
		for i := 0; i < 200 && !p.Acquire(1, in2, nil); i++ {
			h.tick(p, 1)
		}
		seq++
		p.InstDecoded(1, seq, in2)
		p.InstCommitted(1, seq)
	}
	// Now commit thread 0's write.
	p.WriteValue(0, isa.X1, 42)
	h.tick(p, 100)
	if got := p.ReadValue(0, isa.X1); got != 42 {
		t.Errorf("reallocated x1 = %d, want 42", got)
	}
}

func TestViReCNoDummyDestWaitsForFill(t *testing.T) {
	h := newHarness(20)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC, NoDummyDest: true},
		1, h.dev, h.memory, h.layout)
	h.seed(0, isa.X1, 9)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	if p.Acquire(0, in, nil) {
		t.Fatal("NoDummyDest: destination must wait for a real fill")
	}
	for i := 0; i < 200 && !p.Acquire(0, in, nil); i++ {
		h.tick(p, 1)
	}
	if !p.Acquire(0, in, nil) {
		t.Fatal("fill never completed")
	}
	if got := p.ReadValue(0, isa.X1); got != 9 {
		t.Errorf("filled dest old value = %d, want 9", got)
	}
}

func TestPrefetchFullHandlesHaltedRotation(t *testing.T) {
	// With 3 threads where one halts, the double buffer must keep
	// rotating among the survivors.
	h := newHarness(2)
	p := NewPrefetch(PrefetchFull, 3, h.dev, h.memory, h.layout)
	for i := 0; i < 1000 && !p.CanSwitchTo(0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0)
	p.ThreadHalted(0)
	for i := 0; i < 1000 && !p.CanSwitchTo(1); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(0, 1)
	for i := 0; i < 1000 && !p.CanSwitchTo(2); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(1, 2)
	// Back to 1.
	for i := 0; i < 1000 && !p.CanSwitchTo(1); i++ {
		h.tick(p, 1)
	}
	if !p.CanSwitchTo(1) {
		t.Error("rotation among survivors broke after a halt")
	}
}

func TestBankedXZRWriteDiscarded(t *testing.T) {
	h := newHarness(1)
	p := NewBanked(1, h.dev, h.memory, h.layout)
	p.WriteValue(0, isa.XZR, 99)
	if p.ReadValue(0, isa.XZR) != 0 {
		t.Error("XZR write must be discarded")
	}
}
