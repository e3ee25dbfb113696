// Package vrmu implements the Virtual Register Management Unit — the core
// contribution of the ViReC paper. The VRMU sits in the decode stage and
// maps (thread, architectural register) pairs onto a small physical
// register file used as a cache. It consists of:
//
//   - the tag store: a CAM holding one entry per physical register with
//     Thread-recency (T, 3 bits), Commit (C, 1 bit) and Age (A, 3 bits)
//     replacement-policy state;
//   - the replacement policies of Section 4: PLRU, perfect LRU, MRT-PLRU,
//     MRT-LRU and the paper's Least Recently Committed (LRC) policy;
//   - the rollback queue: a FIFO as deep as the processor backend that
//     records the registers of in-flight instructions so their C bits can
//     be reset when a context switch flushes the pipeline.
//
// Eviction selects the entry with the highest retention priority formed by
// concatenating T (most significant), then C, then A — so registers of the
// most recently suspended thread go first, committed registers go before
// in-flight ones within a thread, and older registers go before younger.
package vrmu

import (
	"fmt"

	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/telemetry"
)

// Policy selects the replacement policy used by the tag store.
type Policy uint8

// Replacement policies evaluated in Figure 12.
const (
	// PLRU uses only the 3-bit age field, as the NSF [41] and GPU register
	// caches do. It is oblivious to thread scheduling.
	PLRU Policy = iota
	// LRU is a perfect least-recently-used policy over exact timestamps,
	// still oblivious to thread scheduling.
	LRU
	// MRTPLRU concatenates thread-recency bits with the pseudo-LRU age:
	// registers of the most recently suspended thread are evicted first.
	MRTPLRU
	// MRTLRU is MRT with perfect LRU inside each thread (needs perfect
	// recency information; an upper bound for age-based policies).
	MRTLRU
	// LRC is the paper's Least Recently Committed policy: MRT-PLRU plus a
	// commit bit that protects registers of flushed (to-be-replayed)
	// instructions over committed ones.
	LRC
	// Belady is an oracle upper bound in the spirit of Belady's MIN [12],
	// which Section 4 positions as the target LRC approximates: thread
	// recency orders threads by how soon they run again, and perfect
	// future knowledge of each thread's register access sequence orders
	// evictions within a thread. It requires an oracle feed (SetOracle)
	// and is not part of AllPolicies.
	Belady
	// LRCH is LRC plus compiler hints ("A Lightweight, Compiler-Assisted
	// Register File Cache for GPGPU"): a register the static analyzer
	// proved dead outranks every live entry as a victim, and spills of
	// dead or rematerializable values come off the BSI critical path.
	LRCH
)

var policyNames = [...]string{"PLRU", "LRU", "MRT-PLRU", "MRT-LRU", "LRC", "Belady",
	"LRC+H"}

// String returns the paper's name for the policy.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy converts a name (as printed by String) back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if n == s {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("vrmu: unknown policy %q", s)
}

// AllPolicies lists every oracle-free, hint-free policy, in Figure-12
// order. Belady needs an oracle feed and the hint policies need hint-
// annotated programs, so both are opted into explicitly.
func AllPolicies() []Policy { return []Policy{PLRU, LRU, MRTPLRU, MRTLRU, LRC} }

// HintPolicies lists the policies that consume compiler hints.
func HintPolicies() []Policy { return []Policy{LRCH} }

// HintAware reports whether the policy consumes compiler hints (and so
// whether a provider should track hint marks for in-flight instructions).
func (p Policy) HintAware() bool { return p == LRCH }

const (
	maxT   = 7 // 3-bit thread recency
	maxAge = 7 // 3-bit pseudo-LRU age
)

// Entry is one tag-store entry describing a physical register.
type Entry struct {
	Valid  bool
	Thread int
	Reg    isa.Reg

	T uint8 // thread recency: 0 = current thread, grows with suspension recency
	C bool  // commit bit: true once a using instruction commits
	A uint8 // pseudo-LRU age: 0 = just used

	Value uint64 // cached register value
	Dirty bool   // value differs from the backing store
	Dummy bool   // allocated via the dummy-destination optimization; the
	// value is a placeholder and must not be spilled

	// Compiler-hint bits, set at commit of a hinted instruction and
	// consumed by the hint-aware policies. Dead and Remat clear on any
	// reuse of the entry (the hint described the previous lifetime); they
	// affect victim choice and spill scheduling only, never values.
	Dead  bool // architecturally dead on every path; ideal victim
	Remat bool // value reproducible from an immediate; writeback is waste

	lastUse uint64 // perfect-LRU timestamp
}

// Victim describes an evicted entry so the BSI can spill it. A Dummy
// victim carries a placeholder value that must not reach the backing
// store (the architecturally-live value is still there).
type Victim struct {
	Thread int
	Reg    isa.Reg
	Value  uint64
	Dirty  bool
	Dummy  bool
	Dead   bool // hint-proven dead: spill may leave the critical path
	Remat  bool // hint-proven rematerializable: likewise
}

// Stats accumulates tag-store statistics.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	DirtyEvict uint64
	CResets    uint64 // C bits reset by the rollback queue

	DeadVictims uint64 // evictions that picked a hint-proven dead entry
}

// HitRate returns hits/(hits+misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// TagStore is the CAM mapping architectural registers of all threads onto
// the physical register file.
type TagStore struct {
	entries []Entry
	// cam is the dense (thread, arch reg) -> physical index table modeling
	// the hardware CAM match: slot thread*isa.NumRegs+reg holds the
	// physical index or -1. A flat array keeps the decode-stage lookup —
	// the single hottest simulator operation — a bounds check and a load
	// instead of a map probe, and allocates nothing per access. It grows
	// on demand as higher thread ids appear.
	cam     []int16
	policy  Policy
	clock   uint64
	current int // currently running thread
	oracle  func(thread int, reg isa.Reg) uint64

	// ranks is the scratch buffer for perfect-LRU rank computation, reused
	// across SelectVictim calls so victim selection never allocates.
	ranks []uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// NewTagStore builds a tag store for numPhys physical registers.
func NewTagStore(numPhys int, policy Policy) *TagStore {
	if numPhys <= 0 {
		panic("vrmu: tag store needs at least one physical register")
	}
	if numPhys > 1<<15 {
		panic("vrmu: tag store limited to 32768 physical registers")
	}
	return &TagStore{
		entries: make([]Entry, numPhys),
		policy:  policy,
	}
}

// RegisterMetrics wires the tag store's counters into a registry under
// prefix (e.g. "vrmu0"). Counters alias the Stats fields.
func (t *TagStore) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &t.Stats
	r.Counter(prefix+"/hits", &s.Hits)
	r.Counter(prefix+"/misses", &s.Misses)
	r.Counter(prefix+"/evictions", &s.Evictions)
	r.Counter(prefix+"/dirty_evicts", &s.DirtyEvict)
	r.Counter(prefix+"/c_resets", &s.CResets)
	r.Counter(prefix+"/dead_victims", &s.DeadVictims)
	r.Gauge(prefix+"/occupancy", func() float64 { return float64(t.Occupancy()) })
}

// camSlot flattens a (thread, reg) pair into a CAM table index.
func camSlot(thread int, reg isa.Reg) int {
	return thread*int(isa.NumRegs) + int(reg)
}

// camSet records a mapping, growing the table for new threads.
func (t *TagStore) camSet(thread int, reg isa.Reg, phys int) {
	s := camSlot(thread, reg)
	for len(t.cam) <= s {
		t.cam = append(t.cam, -1)
	}
	t.cam[s] = int16(phys)
}

// Size returns the number of physical registers.
func (t *TagStore) Size() int { return len(t.entries) }

// Policy returns the replacement policy in use.
func (t *TagStore) Policy() Policy { return t.policy }

// SetOracle installs the future-distance feed the Belady policy consults:
// fn returns how many of the thread's future register accesses occur
// before (thread, reg) is used again (larger = further in the future).
func (t *TagStore) SetOracle(fn func(thread int, reg isa.Reg) uint64) {
	t.oracle = fn
}

// Entry returns a copy of the tag-store entry at physical index i.
func (t *TagStore) Entry(i int) Entry { return t.entries[i] }

// Lookup finds the physical index for (thread, reg). It does not update
// replacement state or hit/miss statistics: the provider counts one
// access per operand via CountAccess, while Lookup is also used for
// internal bookkeeping.
//
//virec:hotpath
func (t *TagStore) Lookup(thread int, reg isa.Reg) (int, bool) {
	s := camSlot(thread, reg)
	if s >= len(t.cam) || t.cam[s] < 0 {
		return 0, false
	}
	return int(t.cam[s]), true
}

// CountAccess records one architectural register access as a hit or miss
// (Figure 12's hit-rate metric: one count per operand per instruction).
func (t *TagStore) CountAccess(hit bool) {
	if hit {
		t.Stats.Hits++
	} else {
		t.Stats.Misses++
	}
}

// Contains reports presence without counting a hit or miss (used by
// oracle components and tests).
func (t *TagStore) Contains(thread int, reg isa.Reg) bool {
	s := camSlot(thread, reg)
	return s < len(t.cam) && t.cam[s] >= 0
}

// agingEpoch is the number of register accesses between global age
// increments. Hardware pseudo-LRU ages entries on a periodic tick rather
// than on every access; a coarse epoch preserves the cross-thread recency
// ordering that makes the (pathological) PLRU behaviour of Figure 5
// observable, while ages still saturate and fuzz within a thread — the
// motivation for the LRC commit bit (Figure 6).
const agingEpoch = 4

// Touch records an access to physical register phys: its age resets and
// the C bit is speculatively set (the rollback queue clears it again if
// the using instruction is flushed). Every agingEpoch touches, all other
// valid entries age by one (3-bit saturating).
//
//virec:hotpath
func (t *TagStore) Touch(phys int) {
	t.clock++
	// The full-file aging scan only happens on the epoch tick; ordinary
	// touches update just the accessed entry, keeping the per-operand cost
	// O(1) instead of O(physical registers).
	if t.clock%agingEpoch == 0 {
		for i := range t.entries {
			if i == phys {
				continue
			}
			if e := &t.entries[i]; e.Valid && e.A < maxAge {
				e.A++
			}
		}
	}
	if e := &t.entries[phys]; e.Valid {
		e.A = 0
		e.C = true
		// Any reuse invalidates the per-lifetime hints: the instruction
		// touching the register proves the dead hint described an earlier
		// lifetime, and the new value may not match the old immediate.
		e.Dead = false
		e.Remat = false
		e.lastUse = t.clock
	}
}

// retention returns the eviction priority of entry i under the active
// policy; the highest value is evicted first. Invalid entries always win.
// oldestRank is the dense rank array from lruRanks (nil for policies that
// do not need perfect recency).
func (t *TagStore) retention(i int, oldestRank []uint64) uint64 {
	e := &t.entries[i]
	if !e.Valid {
		return ^uint64(0)
	}
	cBit := uint64(0)
	if e.C {
		cBit = 1
	}
	switch t.policy {
	case PLRU:
		return uint64(e.A)
	case LRU:
		return oldestRank[i] // older => higher rank
	case MRTPLRU:
		return uint64(e.T)<<3 | uint64(e.A)
	case MRTLRU:
		return uint64(e.T)<<32 | oldestRank[i]
	case LRC:
		return uint64(e.T)<<4 | cBit<<3 | uint64(e.A)
	case LRCH:
		// LRC order, with the dead bit above the recency bits: a dead
		// entry beats every live one (its value is unreachable, eviction
		// is free).
		deadBit := uint64(0)
		if e.Dead {
			deadBit = 1
		}
		return deadBit<<7 | uint64(e.T)<<4 | cBit<<3 | uint64(e.A)
	case Belady:
		var dist uint64
		if t.oracle != nil {
			dist = t.oracle(e.Thread, e.Reg)
			if dist > 0xffffffff {
				dist = 0xffffffff
			}
		}
		return uint64(e.T)<<32 | dist
	}
	return uint64(e.A)
}

// lruRanks fills the scratch rank array: entry i gets a rank where the
// least recently used valid entry has the highest value. Only built for
// perfect-LRU policies; the buffer lives on the TagStore so repeated
// victim selections never allocate.
func (t *TagStore) lruRanks() []uint64 {
	if t.policy != LRU && t.policy != MRTLRU {
		return nil
	}
	if cap(t.ranks) < len(t.entries) {
		//virec:alloc-ok rank buffer grows once to the tag-store size, then is reused
		t.ranks = make([]uint64, len(t.entries))
	}
	ranks := t.ranks[:len(t.entries)]
	for i := range t.entries {
		if t.entries[i].Valid {
			// Smaller lastUse (older) => larger rank.
			ranks[i] = ^t.entries[i].lastUse & 0xffffffff
		} else {
			ranks[i] = 0
		}
	}
	return ranks
}

// SelectVictim returns the physical index to evict, skipping any index
// locked reports true for (the registers of the instruction currently
// decoding must not be displaced by its own fills; nil means nothing is
// locked). It returns -1 if every entry is locked. Ties in the policy
// bits are broken toward the least recently used entry — the
// arbitrary-but-reasonable hardware tie-break — so policy comparisons
// isolate the T/C/A bits themselves.
//
//virec:hotpath
func (t *TagStore) SelectVictim(locked func(int) bool) int {
	ranks := t.lruRanks()
	best := -1
	var bestPri uint64
	var bestUse uint64
	for i := range t.entries {
		if locked != nil && locked(i) {
			continue
		}
		pri := t.retention(i, ranks)
		use := t.entries[i].lastUse
		if best < 0 || pri > bestPri || (pri == bestPri && use < bestUse) {
			best, bestPri, bestUse = i, pri, use
		}
	}
	return best
}

// Insert installs (thread, reg) into physical slot phys, evicting whatever
// occupied it. The returned Victim is valid when a live entry was
// displaced. The new entry starts clean with A=0, C set speculatively.
func (t *TagStore) Insert(thread int, reg isa.Reg, phys int) (Victim, bool) {
	e := &t.entries[phys]
	var v Victim
	evicted := false
	if e.Valid {
		v = Victim{Thread: e.Thread, Reg: e.Reg, Value: e.Value, Dirty: e.Dirty,
			Dummy: e.Dummy, Dead: e.Dead, Remat: e.Remat}
		evicted = true
		t.Stats.Evictions++
		if e.Dirty {
			t.Stats.DirtyEvict++
		}
		if e.Dead {
			t.Stats.DeadVictims++
		}
		t.camSet(e.Thread, e.Reg, -1)
	}
	t.clock++
	tBits := uint8(0)
	if thread != t.current {
		// A register inserted for a non-running thread (prefetch-style
		// fills) starts with non-zero recency.
		tBits = 1
	}
	*e = Entry{
		Valid: true, Thread: thread, Reg: reg,
		T: tBits, C: true, A: 0,
		lastUse: t.clock,
	}
	t.camSet(thread, reg, phys)
	return v, evicted
}

// WriteValue updates the cached value of physical register phys and marks
// it dirty (the backing store no longer matches).
func (t *TagStore) WriteValue(phys int, v uint64) {
	e := &t.entries[phys]
	e.Value = v
	e.Dirty = true
	e.Dummy = false
	e.Dead = false
	e.Remat = false
}

// FillValue installs a value fetched from the backing store: the entry
// stays clean.
func (t *TagStore) FillValue(phys int, v uint64) {
	e := &t.entries[phys]
	e.Value = v
	e.Dirty = false
	e.Dummy = false
	e.Dead = false
	e.Remat = false
}

// FillDummy installs a placeholder for a destination-only register (the
// dummy-value optimization): the entry is usable as a write target but its
// value must never be spilled.
func (t *TagStore) FillDummy(phys int) {
	e := &t.entries[phys]
	e.Value = 0
	e.Dirty = false
	e.Dummy = true
	e.Dead = false
	e.Remat = false
}

// MarkDead records a compiler hint that the value cached at phys is
// architecturally dead on every path: the hint-aware policies then prefer
// it as a victim and its spill leaves the critical path. The mark is
// applied at commit (a flushed instruction's hints are discarded by the
// provider) and clears on any later touch, write or fill of the entry.
//
//virec:hotpath
func (t *TagStore) MarkDead(phys int) {
	if e := &t.entries[phys]; e.Valid {
		e.Dead = true
	}
}

// MarkRemat records a compiler hint that the value cached at phys is
// rematerializable from its producing instruction's immediate: a dirty
// copy is never worth a critical-path writeback.
//
//virec:hotpath
func (t *TagStore) MarkRemat(phys int) {
	if e := &t.entries[phys]; e.Valid {
		e.Remat = true
	}
}

// ReadValue returns the cached value of physical register phys.
func (t *TagStore) ReadValue(phys int) uint64 { return t.entries[phys].Value }

// OnContextSwitch updates the T bits: registers of the suspended thread go
// to the maximum recency, every other thread's registers decay by one, and
// the new running thread's registers are forced to zero.
func (t *TagStore) OnContextSwitch(suspended, next int) {
	t.current = next
	for i := range t.entries {
		e := &t.entries[i]
		if !e.Valid {
			continue
		}
		switch e.Thread {
		case suspended:
			e.T = maxT
		case next:
			e.T = 0
		default:
			if e.T > 0 {
				e.T--
			}
		}
	}
}

// SetCurrent sets the running thread without a switch (initial schedule).
func (t *TagStore) SetCurrent(thread int) {
	t.current = thread
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.Thread == thread {
			e.T = 0
		}
	}
}

// Current returns the thread the tag store believes is running.
func (t *TagStore) Current() int { return t.current }

// ResetC clears the commit bits of the given physical registers; the
// rollback queue calls this when a context switch flushes the pipeline.
func (t *TagStore) ResetC(phys []int) {
	for _, i := range phys {
		if i >= 0 && i < len(t.entries) && t.entries[i].Valid {
			if t.entries[i].C {
				t.Stats.CResets++
			}
			t.entries[i].C = false
		}
	}
}

// Evict removes the entry at physical index phys without installing a
// replacement, returning the victim for spilling. The slot becomes free.
// Used by group-eviction policies that clear several slots at once.
func (t *TagStore) Evict(phys int) (Victim, bool) {
	e := &t.entries[phys]
	if !e.Valid {
		return Victim{}, false
	}
	v := Victim{Thread: e.Thread, Reg: e.Reg, Value: e.Value, Dirty: e.Dirty,
		Dummy: e.Dummy, Dead: e.Dead, Remat: e.Remat}
	t.Stats.Evictions++
	if e.Dirty {
		t.Stats.DirtyEvict++
	}
	if e.Dead {
		t.Stats.DeadVictims++
	}
	t.camSet(e.Thread, e.Reg, -1)
	e.Valid = false
	return v, true
}

// LineSiblings returns the physical indices of valid entries belonging to
// the same thread whose architectural registers share reg's backing-store
// cache line (eight registers per line). reg's own entry is excluded.
func (t *TagStore) LineSiblings(thread int, reg isa.Reg) []int {
	lineBase := reg &^ 7
	var out []int
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.Thread == thread && e.Reg != reg && e.Reg&^7 == lineBase {
			out = append(out, i)
		}
	}
	return out
}

// InvalidateThread drops every entry of a thread (used when a thread
// halts; its registers need no spill because the context is dead).
func (t *TagStore) InvalidateThread(thread int) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.Thread == thread {
			t.camSet(e.Thread, e.Reg, -1)
			e.Valid = false
		}
	}
}

// Occupancy returns the number of valid entries.
func (t *TagStore) Occupancy() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
		}
	}
	return n
}

// CheckInvariants validates CAM/entry consistency; returns "" when OK.
func (t *TagStore) CheckInvariants() string {
	mapped := 0
	for s, pi := range t.cam {
		if pi < 0 {
			continue
		}
		mapped++
		thread, reg := s/int(isa.NumRegs), isa.Reg(s%int(isa.NumRegs))
		if int(pi) >= len(t.entries) {
			return fmt.Sprintf("cam t%d %s -> %d outside the %d-entry store", thread, reg, pi, len(t.entries))
		}
		e := &t.entries[pi]
		if !e.Valid || e.Thread != thread || e.Reg != reg {
			return fmt.Sprintf("cam t%d %s -> %d mismatches entry %+v", thread, reg, pi, *e)
		}
	}
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid {
			n++
			if t.entries[i].A > maxAge || t.entries[i].T > maxT {
				return fmt.Sprintf("entry %d has out-of-range bits %+v", i, t.entries[i])
			}
		}
	}
	if n != mapped {
		return fmt.Sprintf("%d valid entries but %d cam mappings", n, mapped)
	}
	return ""
}
