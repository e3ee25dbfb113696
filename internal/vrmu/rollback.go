package vrmu

import (
	"fmt"

	"github.com/virec/virec/internal/isa"
)

// RollbackEntry is the one record of an in-flight instruction: the
// physical registers it touches, whether it is a memory operation (the
// context switching logic needs the memory status of the oldest entry),
// its register-access count (the Belady oracle's cursor advances by it at
// commit) and its compiler-hint marks. Marks reach the tag store only when
// the entry commits; a flush discards them with the entry, and the
// replayed decode records them again, so hints stay exactly as
// speculative as the instructions that carry them.
type RollbackEntry struct {
	Phys     []int
	IsMem    bool
	Seq      uint64 // instruction sequence number, for matching on commit
	Accesses uint32 // non-XZR entries of the instruction's in.Regs

	// Hint marks, set by the provider after Push under a hint-aware
	// policy: the registers of Thread the dead flags name, and the
	// destination to mark rematerializable (XZR = none).
	Thread int
	Dead   [4]isa.Reg
	NDead  uint8
	Remat  isa.Reg
}

// RollbackQueue is the FIFO of in-flight instructions' register indices.
// Its depth equals the maximum number of instructions in the processor
// backend. When a context switch flushes the pipeline, Flush compacts all
// queued indices and resets their C bits in the tag store, so registers of
// flushed (soon to be replayed) instructions are retained over committed
// ones by the LRC policy.
type RollbackQueue struct {
	entries []RollbackEntry
	depth   int
	tags    *TagStore

	// Flush scratch, reused across flushes: seen marks physical indices
	// already compacted, phys collects the distinct set. Both are cleared
	// after use so steady-state flushes allocate nothing.
	seen []bool
	phys []int
}

// NewRollbackQueue builds a rollback queue of the given depth bound to the
// tag store whose C bits it maintains.
func NewRollbackQueue(depth int, tags *TagStore) *RollbackQueue {
	if depth <= 0 {
		depth = 1
	}
	q := &RollbackQueue{depth: depth, tags: tags}
	if tags != nil {
		q.seen = make([]bool, tags.Size())
	}
	return q
}

// Full reports whether the queue cannot accept another instruction; the
// decode stage stalls while full (the backend is saturated).
func (q *RollbackQueue) Full() bool { return len(q.entries) >= q.depth }

// Len returns the number of in-flight instructions tracked.
func (q *RollbackQueue) Len() int { return len(q.entries) }

// Depth returns the configured capacity.
func (q *RollbackQueue) Depth() int { return q.depth }

// CheckInvariants validates the queue against a tag store of physSize
// entries: occupancy within depth, strictly increasing sequence numbers
// (the backend is in-order), and every recorded physical index in range.
// It returns a description of the first violation, or "".
func (q *RollbackQueue) CheckInvariants(physSize int) string {
	if len(q.entries) > q.depth {
		return fmt.Sprintf("%d entries exceed depth %d", len(q.entries), q.depth)
	}
	for i, e := range q.entries {
		if i > 0 && e.Seq <= q.entries[i-1].Seq {
			return fmt.Sprintf("entry %d seq %d not after predecessor seq %d", i, e.Seq, q.entries[i-1].Seq)
		}
		for _, p := range e.Phys {
			if p < 0 || p >= physSize {
				return fmt.Sprintf("entry %d (seq %d) records physical register %d outside [0,%d)", i, e.Seq, p, physSize)
			}
		}
	}
	return ""
}

// Push records an instruction that passed decode and returns its entry,
// with no accesses and no hint marks, for the caller to fill in; the
// pointer is valid until the next Push or Commit. phys is copied into
// storage recycled from committed entries, so steady-state pushes (after
// the entry slice and each entry's Phys have grown to the backend's
// working size) allocate nothing — Push runs once per decoded
// instruction, on the core's tick path.
func (q *RollbackQueue) Push(seq uint64, phys []int, isMem bool) *RollbackEntry {
	n := len(q.entries)
	if n < cap(q.entries) {
		q.entries = q.entries[:n+1]
	} else {
		q.entries = append(q.entries, RollbackEntry{})
	}
	e := &q.entries[n]
	*e = RollbackEntry{Phys: append(e.Phys[:0], phys...), IsMem: isMem, Seq: seq, Remat: isa.XZR}
	return e
}

// Commit removes the oldest entry, applies its hint marks to the tag store
// and returns its register-access count; the commit stage signals it when
// an instruction completes. Committing out of order is a programming error
// and panics (the core is in-order); committing against an empty queue
// (the instruction's entry went with a flush) does nothing. The removed
// entry's Phys storage rotates to the slice's tail, where the next Push
// reuses it.
func (q *RollbackQueue) Commit(seq uint64) uint32 {
	if len(q.entries) == 0 {
		return 0
	}
	head := &q.entries[0]
	if head.Seq != seq {
		panic(fmt.Sprintf("vrmu: out-of-order commit against rollback queue: committed seq %d, oldest in-flight seq %d (%d queued)",
			seq, head.Seq, len(q.entries)))
	}
	q.applyMarks(head)
	accesses, phys := head.Accesses, head.Phys
	n := copy(q.entries, q.entries[1:])
	q.entries[n] = RollbackEntry{Phys: phys[:0]}
	q.entries = q.entries[:n]
	return accesses
}

// applyMarks installs a committing entry's hint marks. Registers no longer
// resident simply lose their mark (the eviction already happened; nothing
// to steer).
func (q *RollbackQueue) applyMarks(e *RollbackEntry) {
	for _, r := range e.Dead[:e.NDead] {
		if phys, ok := q.tags.Lookup(e.Thread, r); ok {
			q.tags.MarkDead(phys)
		}
	}
	if e.Remat != isa.XZR {
		if phys, ok := q.tags.Lookup(e.Thread, e.Remat); ok {
			q.tags.MarkRemat(phys)
		}
	}
}

// OldestIsMem reports whether the oldest in-flight instruction is a memory
// operation. The CSL uses it to delay context switches until long-running
// non-memory instructions ahead of the missing load have drained.
func (q *RollbackQueue) OldestIsMem() (bool, bool) {
	if len(q.entries) == 0 {
		return false, false
	}
	return q.entries[0].IsMem, true
}

// Drop empties the queue without resetting any C bits (the NoRollback
// ablation: the hardware cost of the queue is removed and commit bits go
// stale on flushes). The entries' hint marks go with them.
func (q *RollbackQueue) Drop() {
	q.entries = q.entries[:0]
}

// Flush compacts every queued register index into one set, resets the
// corresponding C bits in the tag store, and empties the queue, discarding
// the entries' hint marks (flushed instructions replay). It returns
// the number of distinct physical registers rolled back. Flush runs on
// every pipeline flush (each context switch); the compaction set and its
// membership bitmap are scratch fields reused across calls.
func (q *RollbackQueue) Flush() int {
	if len(q.entries) == 0 {
		return 0
	}
	q.phys = q.phys[:0]
	for _, e := range q.entries {
		for _, p := range e.Phys {
			for p >= len(q.seen) {
				q.seen = append(q.seen, false)
			}
			if !q.seen[p] {
				q.seen[p] = true
				q.phys = append(q.phys, p)
			}
		}
	}
	q.tags.ResetC(q.phys)
	for _, p := range q.phys {
		q.seen[p] = false
	}
	q.entries = q.entries[:0]
	return len(q.phys)
}
