package mem

// DelayDevice is a memory device that completes every request after a
// fixed latency with unlimited bandwidth. It stands in for the full DRAM
// model in unit tests and latency-sensitivity experiments where queueing
// effects are deliberately excluded.
type DelayDevice struct {
	Latency uint64

	pending delayHeap
	seq     uint64
	now     uint64
}

// NewDelayDevice returns a device with the given fixed latency in cycles.
func NewDelayDevice(latency uint64) *DelayDevice {
	return &DelayDevice{Latency: latency}
}

type delayEvent struct {
	cycle uint64
	seq   uint64
	req   *Request
}

// delayHeap is a hand-rolled min-heap ordered by (cycle, seq); seq is
// unique so the order is total and pops are deterministic. Monomorphic
// sift routines avoid the per-request interface boxing container/heap
// would add — this device sits under every fixed-latency simulation.
type delayHeap []delayEvent

func (h delayHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *delayHeap) push(ev delayEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//virec:hotpath
func (h *delayHeap) pop() delayEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = delayEvent{} // drop the *Request reference for the GC
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// Access always accepts.
//
//virec:hotpath
func (d *DelayDevice) Access(r *Request) bool {
	d.seq++
	d.pending.push(delayEvent{cycle: d.now + d.Latency, seq: d.seq, req: r})
	return true
}

// Tick completes due requests.
//
//virec:hotpath
func (d *DelayDevice) Tick(cycle uint64) {
	d.now = cycle
	for len(d.pending) > 0 && d.pending[0].cycle <= cycle {
		ev := d.pending.pop()
		ev.req.Complete(ev.cycle)
	}
}

// NextEvent returns the next due completion, capped at horizon, assuming
// no intervening accesses; with nothing in flight it returns horizon.
// Read-only; now must be the last ticked cycle and horizon must exceed
// now+1.
func (d *DelayDevice) NextEvent(now, horizon uint64) uint64 {
	if len(d.pending) == 0 {
		return horizon
	}
	return min(max(d.pending[0].cycle, now+1), horizon)
}

// SkipTo refreshes the device's clock at last, the final cycle of a run
// NextEvent proved idle: nothing completes, so the tick only restamps now
// for requests accepted at last+1.
func (d *DelayDevice) SkipTo(last uint64) { d.Tick(last) }

// Idle reports whether no requests are in flight.
func (d *DelayDevice) Idle() bool { return len(d.pending) == 0 }
