// Package mem defines the memory-system building blocks shared by the
// cache, DRAM and interconnect models: addresses, requests, the device
// interface, and the flat functional backing memory.
//
// The simulator splits function from timing. All architectural data lives
// in one flat Memory per system and is read/written at the moment an
// instruction (or a register spill/fill) functionally executes. The cache,
// crossbar and DRAM models carry only timing: a Request flows down the
// hierarchy and its Done callback fires when the modeled access completes.
// Each core owns a private data region and a private reserved register
// region, so there is no cross-core sharing that would make the functional
// write-through visible early.
package mem

// Addr is a byte address in the flat physical address space.
type Addr uint64

// LineBytes is the cache line size used throughout the system (64 B, eight
// 64-bit registers per line, as in the paper).
const LineBytes = 64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineBytes - 1) }

// Kind distinguishes reads from writes.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
)

// Request is one memory transaction flowing through the timing models.
//
// Lifetime: the requester owns the request and may recycle it. A device
// may keep the pointer from an accepted Access until it calls Complete,
// and must not touch the request after that. The owner may reuse the
// request once Done has fired, or at once if Access returned false. The
// simulator's requesters keep pools of request records and bind each
// record's Done and Miss callbacks once, when the record is created, so
// the transaction path allocates nothing.
type Request struct {
	Addr Addr
	Size int
	Kind Kind

	// Inst marks an instruction fetch (routed to the icache).
	Inst bool

	// RegisterFill marks a BSI register transaction. The dcache checks the
	// reserved register region instead; a miss on such a request must not
	// trigger a context switch.
	RegisterFill bool

	// NoCritical marks a metadata-only transaction (the BSI dummy-value
	// destination optimization): it occupies bandwidth but nobody waits
	// on its completion.
	NoCritical bool

	// PinSticky pins the touched register line until an Unpin request
	// releases it, independent of the per-register pin counter. The CSL
	// uses it for system-register lines, which stay cached for a
	// thread's whole lifetime (Section 5.3: a thread's general and
	// system register lines are pinned).
	PinSticky bool

	// Unpin releases a sticky pin (thread halt).
	Unpin bool

	// Done is invoked exactly once when the access completes, with the
	// cycle at which the data is available.
	Done func(cycle uint64)

	// Miss, if set, is invoked when a cache detects that this request
	// missed its tag array (primary or merged miss). The ViReC dcache
	// only raises it for data load misses outside the register region;
	// the core wires it to the context switching logic.
	Miss func(cycle uint64)
}

// Complete invokes Done if set, exactly once.
func (r *Request) Complete(cycle uint64) {
	if r.Done != nil {
		d := r.Done
		r.Done = nil
		d(cycle)
	}
}

// Device is a component that accepts memory requests and advances with the
// global clock. Access returns false when the device cannot accept the
// request this cycle (port conflict, full queue, no free MSHR); the caller
// retries on a later cycle.
type Device interface {
	Access(r *Request) bool
	Tick(cycle uint64)
}

// Memory is the flat functional backing store. It allocates 4 KiB pages
// lazily so sparse address spaces (per-core data regions, register
// regions) stay cheap. The zero value is ready to use.
type Memory struct {
	pages map[Addr]*page
}

const pageBytes = 4096

type page struct {
	data [pageBytes]byte
}

// NewMemory returns an empty flat memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[Addr]*page)}
}

func (m *Memory) page(a Addr, create bool) *page {
	if m.pages == nil {
		if !create {
			return nil
		}
		//virec:alloc-ok lazy page table, built once per Memory
		m.pages = make(map[Addr]*page)
	}
	base := a &^ (pageBytes - 1)
	p := m.pages[base]
	if p == nil && create {
		//virec:alloc-ok one allocation per touched page, never freed
		p = &page{}
		m.pages[base] = p
	}
	return p
}

// ByteAt returns the byte at address a (zero if never written).
func (m *Memory) ByteAt(a Addr) byte {
	p := m.page(a, false)
	if p == nil {
		return 0
	}
	return p.data[a%pageBytes]
}

// SetByte stores one byte at address a.
func (m *Memory) SetByte(a Addr, v byte) {
	m.page(a, true).data[a%pageBytes] = v
}

// Read returns size little-endian bytes at address a as a uint64.
// size must be 1, 2, 4 or 8. Accesses may cross page boundaries.
func (m *Memory) Read(a Addr, size int) uint64 {
	var v uint64
	if off := int(a % pageBytes); off+size <= pageBytes {
		p := m.page(a, false)
		if p == nil {
			return 0
		}
		for i, b := range p.data[off : off+size] {
			v |= uint64(b) << (8 * uint(i))
		}
		return v
	}
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(a+Addr(i))) << (8 * uint(i))
	}
	return v
}

// Write stores the low size bytes of v little-endian at address a.
func (m *Memory) Write(a Addr, size int, v uint64) {
	if off := int(a % pageBytes); off+size <= pageBytes {
		b := m.page(a, true).data[off : off+size]
		for i := range b {
			b[i] = byte(v >> (8 * uint(i)))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(a+Addr(i), byte(v>>(8*uint(i))))
	}
}

// Read64 loads a 64-bit value.
func (m *Memory) Read64(a Addr) uint64 { return m.Read(a, 8) }

// Write64 stores a 64-bit value.
func (m *Memory) Write64(a Addr, v uint64) { m.Write(a, 8, v) }

// Footprint returns the number of touched bytes (allocated pages × 4 KiB),
// useful for sanity checks in tests.
func (m *Memory) Footprint() int { return len(m.pages) * pageBytes }

// Clone returns a deep copy of the memory (oracle pre-runs execute
// against a copy so the architectural state stays pristine).
func (m *Memory) Clone() *Memory {
	out := NewMemory()
	for base, p := range m.pages {
		cp := *p
		out.pages[base] = &cp
	}
	return out
}
