package cpu

import (
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Provider is the register-context storage behind the pipeline's decode
// and commit stages. Four implementations live in package cpu/regfile:
// a banked register file, software context switching, the ViReC VRMU, and
// double-buffer prefetching (full and oracle-exact variants).
//
// All methods are called from the core's single-threaded Tick loop, in
// deterministic order; implementations never need locking.
type Provider interface {
	// Acquire attempts to make every register of in resident for thread:
	// the sources listed in needSrcs must have readable committed values
	// and each destination needs a writable slot. It returns true when
	// the instruction can leave decode this cycle. It is retried every
	// cycle until it succeeds and must be idempotent; implementations
	// start fills/evictions on first call and report progress after.
	// Sources satisfied by pipeline forwarding are excluded from
	// needSrcs but the full instruction is visible for dest handling.
	Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool

	// ReadValue returns the committed value of a resident source
	// register. Only called after Acquire returned true.
	ReadValue(thread int, r isa.Reg) uint64

	// WriteValue stores v as the committed value of (thread, r) when an
	// instruction writes back. The register may have been evicted between
	// decode and commit; implementations re-allocate as needed.
	WriteValue(thread int, r isa.Reg, v uint64)

	// InstDecoded tells the provider an instruction entered the backend
	// (the ViReC rollback queue records its registers). BackendFull-style
	// stalls are handled inside Acquire.
	InstDecoded(thread int, seq uint64, in *isa.Inst)

	// InstCommitted signals in-order commit of seq.
	InstCommitted(thread int, seq uint64)

	// PipelineFlushed signals that every in-flight instruction of thread
	// was squashed (context switch); the ViReC rollback queue resets the
	// C bits of their registers.
	PipelineFlushed(thread int)

	// CanSwitchTo reports whether execution of next may begin now (the
	// ViReC system-register ping-pong buffer must hold next's state;
	// software switching must have finished save/restore; prefetch
	// providers must have the incoming bank loaded).
	CanSwitchTo(next int) bool

	// BlockSwitch reports whether context switching must be masked this
	// cycle (the ViReC BSI blocks switches while a register fill or
	// spill is outstanding).
	BlockSwitch() bool

	// OnSwitch commits the context switch from prev to next.
	OnSwitch(prev, next int)

	// ThreadStarted runs when a thread is scheduled for the first time.
	ThreadStarted(thread int)

	// ThreadHalted drops all storage for a finished thread.
	ThreadHalted(thread int)

	// Tick advances background activity (BSI transfers, prefetch engine)
	// once per core cycle, after the pipeline stages have run.
	Tick(cycle uint64)
}

// SkipSupport is an optional Provider extension that enables timed-model
// clock skip-ahead. A provider implementing it lets the core prove that a
// whole run of future cycles would be pure stalls — identical stall
// counters, no state change — so the simulator can jump the clock over
// them. The Banked and ViReC providers implement it; a provider that does
// not (Software, Prefetch) simply never skips, which costs speed, not
// correctness.
type SkipSupport interface {
	// SkipQuiescent reports whether Tick would be a state-preserving
	// no-op right now (no queued BSI transactions to issue; in-flight
	// dcache transactions whose completions arrive via callbacks are
	// fine). A true result must remain true until an external event
	// (dcache completion) or a core-initiated call mutates the provider.
	SkipQuiescent() bool

	// PeekCanSwitch is a side-effect-free preview of CanSwitchTo(next).
	// pure reports whether the real CanSwitchTo call would have been
	// side-effect-free; when pure is false (the call would start a
	// restore/claim), the core must not skip and instead performs the
	// real call on a normally ticked cycle.
	PeekCanSwitch(next int) (ready, pure bool)

	// PeekAcquire is a side-effect-free preview of a *repeated* Acquire
	// call for an instruction already latched in decode (the first call
	// always happens on a normally ticked cycle). pure reports that the
	// real call would change no provider state — not even a counter —
	// and return ready; when pure is false the cycle must be ticked
	// normally. Decode's structural stall behind an occupied EX stage
	// re-Acquires every cycle, so this is what makes long memory-stall
	// windows skippable.
	PeekAcquire(thread int, in *isa.Inst, needSrcs []isa.Reg) (ready, pure bool)
}

// RegLayout describes the reserved memory region that backs register
// contexts: each thread owns a 576-byte stride (eight 64-byte lines for
// the 32 integer + 32 floating-point registers plus one line for system
// registers), so a (thread, register) pair maps to a unique backing-store
// address, eight registers per cache line, as in Section 5.3.
type RegLayout struct {
	Base mem.Addr
}

// ThreadStride is the backing-store footprint of one thread context.
const ThreadStride = 9 * mem.LineBytes // 8 int+fp lines + 1 system line

// RegAddr returns the backing-store address of (thread, r).
func (l RegLayout) RegAddr(thread int, r isa.Reg) mem.Addr {
	return l.Base + mem.Addr(thread*ThreadStride+int(r)*8)
}

// SysRegAddr returns the backing-store address of thread's system
// register line.
func (l RegLayout) SysRegAddr(thread int) mem.Addr {
	return l.Base + mem.Addr(thread*ThreadStride+8*mem.LineBytes)
}

// Size returns the total region size for n threads.
func (l RegLayout) Size(n int) uint64 { return uint64(n * ThreadStride) }

// Contains reports whether addr falls inside the region for n threads.
func (l RegLayout) Contains(addr mem.Addr, n int) bool {
	return addr >= l.Base && addr < l.Base+mem.Addr(l.Size(n))
}
