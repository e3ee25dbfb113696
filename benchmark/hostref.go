package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host reference is a fixed computation the benchmark runs while it
// measures, to gauge how fast the host is at that moment. On a shared
// host a neighbour's load slows this process's own CPU time too (shared
// cores, caches and memory), by 20% to 100% for minutes at a time; the
// reference slows with it, so the workload's CPU time divided by the
// reference's measures the program and not the neighbours.
//
// The reference is a small register-machine interpreter over a fixed
// random program and a 4 MiB data array: dispatch, dependent loads and
// stores and data-dependent branches, the same kind of work the
// simulator does. It uses no repository code, so a change to the program
// leaves it alone. Its memory is mapped outside the Go heap: reference
// data on the heap would raise the garbage collector's heap goal and so
// change the program's own GC cost.
const (
	refCodeLen  = 1 << 12
	refMemWords = 1 << 19 // 4 MiB: past a core's own caches, as the simulator's heap is
	refSteps    = 1 << 21 // one chunk: about 14 ms on a 2-vCPU Xeon

	// refEvery is how often a sampler runs a chunk while a rep runs:
	// often enough that a rep's gauge covers the whole rep, and rarely
	// enough (about 14% of each CPU) to leave the workload its CPUs.
	refEvery = 100 * time.Millisecond

	// refNominal is one chunk's CPU time on the host the benchmark was
	// tuned on (a 2-vCPU Intel Xeon); normalised CPU times are in that
	// host's seconds.
	refNominal = 14 * time.Millisecond

	refBytes = refCodeLen*4 + refMemWords*8
)

// hostRef is one mapped copy of the reference program and data.
type hostRef struct {
	region []byte
	code   []uint32
	mem    []uint64
	sink   uint64 // keeps every chunk's result live
}

func mapHostRef() (*hostRef, error) {
	region, err := syscall.Mmap(-1, 0, refBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the host reference: %w", err)
	}
	h := &hostRef{
		region: region,
		code:   unsafe.Slice((*uint32)(unsafe.Pointer(&region[0])), refCodeLen),
		mem:    unsafe.Slice((*uint64)(unsafe.Pointer(&region[refCodeLen*4])), refMemWords),
	}
	rng := splitmix{0x7265665f686f7374}
	for i := range h.code {
		h.code[i] = uint32(rng.next())
	}
	for i := range h.mem {
		h.mem[i] = rng.next()
	}
	return h, nil
}

func (h *hostRef) unmap() {
	_ = syscall.Munmap(h.region) // nothing to recover: the mapping holds only reference data
}

// timedChunk runs one chunk and returns its CPU time on the calling
// thread, which must be locked to it.
func (h *hostRef) timedChunk() float64 {
	c0 := threadCPU()
	h.sink += refChunk(h.code, h.mem)
	return float64(threadCPU() - c0)
}

// refChunk interprets refSteps operations and returns a value derived
// from all of them, so the compiler cannot drop the work. An operation
// is packed as a kind (low byte, mod 6) and three 4-bit register fields.
func refChunk(code []uint32, mem []uint64) uint64 {
	var r [16]uint64
	for i := range r {
		r[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	pc := 0
	for n := 0; n < refSteps; n++ {
		op := code[pc]
		pc = (pc + 1) & (refCodeLen - 1)
		a, b, c := op>>8&15, op>>16&15, op>>24&15
		switch op & 0xff % 6 {
		case 0:
			r[a] = r[b] + r[c]
		case 1:
			r[a] = r[b] ^ r[c]>>7
		case 2:
			r[a] = mem[r[b]&(refMemWords-1)]
		case 3:
			mem[r[b]&(refMemWords-1)] = r[a] + r[c]
		case 4:
			if r[a]&1 == 0 {
				pc = (pc + int(b)) & (refCodeLen - 1)
			}
		case 5:
			r[a] = r[b]*0xbf58476d1ce4e5b9 + uint64(c)
		}
	}
	var sum uint64
	for _, x := range r {
		sum += x
	}
	return sum
}

// sampler gauges one CPU while a rep runs: on its own thread, pinned to
// that CPU, it runs one chunk at once and then one every refEvery, until
// stopped. Its thread's CPU time is kept out of the rep's (see workCPU).
type sampler struct {
	clock  uintptr // the sampler thread's CPU clock
	stop   chan struct{}
	done   chan struct{}
	chunks []float64 // each chunk's CPU time in ns; read after done
	err    error     // read after done
}

// samplers gauge every CPU the process may run on, one sampler each: a
// neighbour may load one CPU's core and not another's, and a workload
// may run on any of them.
type samplers []*sampler

// sampling holds the samplers of the rep being measured, if any. Only
// the benchmark's own goroutine reads or sets it.
var sampling samplers

func startSamplers() (samplers, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	var ss samplers
	for _, cpu := range cpus {
		s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
		ready := make(chan uintptr)
		go s.run(cpu, ready)
		s.clock = <-ready
		ss = append(ss, s)
	}
	return ss, nil
}

// run never unlocks its thread: the thread is pinned to one CPU, so it
// must end with the goroutine rather than go back to the runtime.
func (s *sampler) run(cpu int, ready chan<- uintptr) {
	defer close(s.done)
	runtime.LockOSThread()
	ready <- threadClock(syscall.Gettid())
	if s.err = pinThread(cpu); s.err != nil {
		return
	}
	h, err := mapHostRef()
	if err != nil {
		s.err = err
		return
	}
	defer h.unmap()
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for {
		s.chunks = append(s.chunks, h.timedChunk())
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the samplers, waits for each, and returns the mean over
// CPUs of each CPU's median chunk CPU time.
func (ss samplers) finish() (time.Duration, error) {
	for _, s := range ss {
		close(s.stop)
	}
	var sum float64
	var err error
	for _, s := range ss {
		<-s.done
		if s.err != nil && err == nil {
			err = s.err
		}
		sum += median(s.chunks)
	}
	if err != nil {
		return 0, err
	}
	return time.Duration(sum / float64(len(ss))), nil
}

// workCPU is the CPU time this process has used so far, less what the
// running samplers' threads have used: the CPU time a rep measures.
func workCPU() time.Duration {
	cpu := processCPU()
	for _, s := range sampling {
		cpu -= cpuClock(s.clock)
	}
	return cpu
}

// cpuMask is a Linux CPU set, as sched_getaffinity and sched_setaffinity
// take it (room for 1024 CPUs).
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on (Linux).
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("reading the CPU affinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread restricts the calling thread to one CPU (Linux).
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("pinning a sampler to CPU %d: %w", cpu, errno)
	}
	return nil
}

// normalise scales a CPU time measured while the reference gauged at
// gauge to the reference host's seconds.
func normalise(cpu, gauge time.Duration) time.Duration {
	return time.Duration(float64(cpu) * float64(refNominal) / float64(gauge))
}

// threadCPU is the calling thread's CPU time (Linux).
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time every thread of this process has used so
// far (Linux). Unlike wall time it does not grow while the process waits
// for a CPU on a shared host.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadClock is the CPU-time clock of thread tid, as Linux encodes a
// per-thread scheduler clock (what pthread_getcpuclockid returns).
func threadClock(tid int) uintptr {
	return uintptr(^tid<<3 | 6)
}

// cpuClock reads a CPU-time clock with clock_gettime, which counts in
// nanoseconds; getrusage's figures are only as fine as the scheduler tick.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
