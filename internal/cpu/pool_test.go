package cpu

import (
	"strings"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
)

// flatRegs is a provider with every register of every thread resident and
// no backing-store traffic, so the only requests the memory system sees
// are the core's own loads, stores and fetches.
type flatRegs struct{ regs [][isa.NumRegs]uint64 }

func (p *flatRegs) Acquire(int, *isa.Inst, []isa.Reg) bool { return true }
func (p *flatRegs) ReadValue(t int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.regs[t][r]
}
func (p *flatRegs) WriteValue(t int, r isa.Reg, v uint64) {
	if r != isa.XZR {
		p.regs[t][r] = v
	}
}
func (p *flatRegs) InstDecoded(int, uint64, *isa.Inst) {}
func (p *flatRegs) InstCommitted(int, uint64)          {}
func (p *flatRegs) PipelineFlushed(int)                {}
func (p *flatRegs) CanSwitchTo(int) bool               { return true }
func (p *flatRegs) BlockSwitch() bool                  { return false }
func (p *flatRegs) OnSwitch(int, int)                  {}
func (p *flatRegs) ThreadStarted(int)                  {}
func (p *flatRegs) ThreadHalted(int)                   {}
func (p *flatRegs) Tick(uint64)                        {}

// staleProbe sits between the core and a cache. It knows every request
// record the core will ever use (the test pre-grows the pools), remembers
// which in-flight instruction or fetch slot each accepted request was
// issued for, and checks every completion: one whose record was recycled
// since issue must leave the new occupant untouched.
type staleProbe struct {
	t      *testing.T
	c      *Core
	target mem.Device
	loads  map[*mem.Request]*loadReq
	slots  map[*mem.Request]*fetchReq

	// staleLoads and staleFetches count stale completions that arrived
	// while the recycled record held a live load (or fetch slot) still
	// waiting for its own completion: the case a pointer-identity check
	// corrupts.
	staleLoads, staleFetches int
}

func (p *staleProbe) Access(r *mem.Request) bool {
	done := r.Done
	switch {
	case r.Kind == mem.Write:
	case p.loads[r] == nil && p.slots[r] == nil:
		p.t.Fatalf("request %+v is not from a pre-grown record", *r)
	case p.loads[r] != nil:
		lr := p.loads[r]
		f, seq := lr.f, lr.seq
		r.Done = func(cycle uint64) {
			stale := f.seq != seq || f.squashed
			waiting := f.seq != seq && p.latched(f) && f.loadIssued && !f.loadDone
			wasDone, wasVal := f.loadDone, f.loadVal
			done(cycle)
			if stale && (f.loadDone != wasDone || f.loadVal != wasVal) {
				p.t.Errorf("cycle %d: stale load completion (seq %d) marked the record's occupant (seq %d) done",
					cycle, seq, f.seq)
			}
			if waiting {
				p.staleLoads++
			}
		}
	default:
		fr := p.slots[r]
		s, tag := fr.slot, fr.tag
		r.Done = func(cycle uint64) {
			stale := s.tag != tag
			waiting := stale && p.queued(s) && s.issued && !s.ready
			wasReady := s.ready
			done(cycle)
			if stale && s.ready != wasReady {
				p.t.Errorf("cycle %d: stale fetch completion (tag %d) marked the slot's occupant (tag %d) ready",
					cycle, tag, s.tag)
			}
			if waiting {
				p.staleFetches++
			}
		}
	}
	if !p.target.Access(r) {
		r.Done = done
		return false
	}
	return true
}

func (p *staleProbe) Tick(uint64) {}

func (p *staleProbe) latched(f *inflight) bool {
	return f == p.c.dec || f == p.c.ex || f == p.c.mm || f == p.c.wb
}

func (p *staleProbe) queued(s *fetchSlot) bool {
	for _, q := range p.c.fetchQ {
		if q == s {
			return true
		}
	}
	return false
}

// TestStaleCompletionsAfterRecordReuse runs two threads of a missing
// load loop over a 300-cycle memory, so switch-on-miss squashes loads
// whose fills are still outstanding and branch redirects discard fetch
// slots with icache requests in flight. The pools hand the freed records
// to younger work long before those completions arrive; each completion
// must be dropped by seq (loads) or tag (fetch slots), and the final
// registers must match the functional interpreter.
func TestStaleCompletionsAfterRecordReuse(t *testing.T) {
	prog := asm.MustAssemble("stale", `
		mov x1, #0
		mov x2, #0
	loop:
		ldr x3, [x10]
		add x1, x1, x3
		str x1, [x11]
		add x10, x10, #64
		add x2, x2, #1
		cmp x2, #40
		b.lt loop
		halt
	`)
	const threads = 2
	base := func(th int) (data, out mem.Addr) {
		return mem.Addr(0x10000 + th*0x8000), mem.Addr(0x40000 + th*0x100)
	}
	for _, withICache := range []bool{false, true} {
		name := "no-icache"
		if withICache {
			name = "icache"
		}
		t.Run(name, func(t *testing.T) {
			memory := mem.NewMemory()
			for th := 0; th < threads; th++ {
				data, _ := base(th)
				for i := 0; i < 40; i++ {
					memory.Write64(data+mem.Addr(64*i), uint64(1000*th+i+1))
				}
			}
			golden := memory.Clone()

			lower := mem.NewDelayDevice(300)
			dc := cache.New(cache.Config{Name: "dcache", SizeBytes: 1024, Assoc: 2,
				HitLatency: 2, MSHRs: 4, Ports: 1}, lower)
			var ic *cache.Cache
			if withICache {
				ic = cache.New(cache.Config{Name: "icache", SizeBytes: 1024, Assoc: 2,
					HitLatency: 2, MSHRs: 2, Ports: 1}, lower)
			}
			prov := &flatRegs{regs: make([][isa.NumRegs]uint64, threads)}
			c := New(Config{Threads: threads, ValidateValues: true}, prov, nil, memory)
			probe := &staleProbe{t: t, c: c, target: dc,
				loads: map[*mem.Request]*loadReq{}, slots: map[*mem.Request]*fetchReq{}}
			c.dcache = probe
			iprobe := &staleProbe{t: t, c: c, target: ic, slots: probe.slots}
			if withICache {
				c.SetICache(iprobe)
			}
			// Pre-grow the request pools so the probe can map every
			// request the core issues back to its record.
			var lrs []*loadReq
			var frs []*fetchReq
			for i := 0; i < 64; i++ {
				lr, fr := c.newLoadReq(), c.newFetchReq()
				probe.loads[&lr.req], probe.slots[&fr.req] = lr, fr
				lrs, frs = append(lrs, lr), append(frs, fr)
			}
			for i := range lrs {
				c.releaseLoadReq(lrs[i])
				c.releaseFetchReq(frs[i])
			}

			for th := 0; th < threads; th++ {
				data, out := base(th)
				c.Thread(th).Prog = prog
				c.Thread(th).SetShadow(isa.X10, uint64(data))
				c.Thread(th).SetShadow(isa.X11, uint64(out))
				prov.regs[th][isa.X10], prov.regs[th][isa.X11] = uint64(data), uint64(out)
			}
			c.Start()
			var cycle uint64
			for ; cycle < 2_000_000 && !c.Done(); cycle++ {
				c.Tick(cycle)
				dc.Tick(cycle)
				if ic != nil {
					ic.Tick(cycle)
				}
				lower.Tick(cycle)
			}
			if !c.Done() {
				t.Fatalf("did not finish in %d cycles", cycle)
			}
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("invariants: %s", msg)
			}
			// Vacuity: stale completions must have reached records that
			// were recycled and held waiting work at the time.
			if probe.staleLoads == 0 {
				t.Error("no stale load completion reached a recycled record holding a waiting load")
			}
			if withICache && iprobe.staleFetches == 0 {
				t.Error("no stale fetch completion reached a recycled slot waiting for its own fetch")
			}
			t.Logf("%d cycles; stale completions on recycled records: %d loads, %d fetches",
				cycle, probe.staleLoads, iprobe.staleFetches)

			for th := 0; th < threads; th++ {
				data, out := base(th)
				ctx := &interp.Context{}
				ctx.Set(isa.X10, uint64(data))
				ctx.Set(isa.X11, uint64(out))
				interp.Run(prog, ctx, golden, 1_000_000, nil)
				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					if got, want := c.Thread(th).Shadow(r), ctx.Get(r); got != want {
						t.Errorf("t%d %s = %d, interpreter %d", th, r, got, want)
					}
				}
				if got, want := memory.Read64(out), golden.Read64(out); got != want {
					t.Errorf("t%d mem[%#x] = %d, interpreter %d", th, out, got, want)
				}
			}
		})
	}
}

// TestCheckInvariantsPools corrupts each pool the way a release bug would
// and expects CheckInvariants to name it.
func TestCheckInvariantsPools(t *testing.T) {
	fresh := func() *Core {
		return New(Config{Threads: 1}, &flatRegs{regs: make([][isa.NumRegs]uint64, 1)}, nil, mem.NewMemory())
	}
	cases := map[string]func(c *Core){
		"in-flight record is in use and in its free list": func(c *Core) {
			f := c.newInflight()
			c.ex = f
			c.freeInflight = append(c.freeInflight, f)
		},
		"fetch slot is in use and in its free list": func(c *Core) {
			s := c.newFetchSlot()
			c.fetchQ = append(c.fetchQ, s)
			c.freeSlots = append(c.freeSlots, s)
		},
		"store-queue entry is in use and in its free list": func(c *Core) {
			e := c.newSQEntry()
			c.sq = append(c.sq, e)
			c.freeSQ = append(c.freeSQ, e)
		},
		"load request is in its free list twice": func(c *Core) {
			r := c.newLoadReq()
			c.releaseLoadReq(r)
			c.releaseLoadReq(r)
		},
		"fetch request is in its free list twice": func(c *Core) {
			r := c.newFetchReq()
			c.releaseFetchReq(r)
			c.releaseFetchReq(r)
		},
	}
	for want, corrupt := range cases {
		c := fresh()
		if msg := c.CheckInvariants(); msg != "" {
			t.Fatalf("fresh core: %s", msg)
		}
		corrupt(c)
		if msg := c.CheckInvariants(); !strings.Contains(msg, want) {
			t.Errorf("CheckInvariants() = %q, want it to report %q", msg, want)
		}
	}
}
