package regfile

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/virec/virec/internal/mem"
)

// recorder is an always-accepting device that logs the address of every
// request it accepts, in acceptance order.
type recorder struct {
	*mem.DelayDevice
	log []mem.Addr
}

func (r *recorder) Access(req *mem.Request) bool {
	r.log = append(r.log, req.Addr)
	return r.DelayDevice.Access(req)
}

// checkZeroOutside fails unless every slot of q outside its live window
// ops[head:] is the zero bsiOp, up to the slice's capacity.
func checkZeroOutside(t *testing.T, name string, q *bsiQueue) {
	t.Helper()
	all := q.ops[:cap(q.ops)]
	for i := range all {
		if i >= q.head && i < len(q.ops) {
			continue
		}
		if !reflect.ValueOf(all[i]).IsZero() {
			t.Fatalf("%s: slot %d outside the live window [%d,%d) holds %+v",
				name, i, q.head, len(q.ops), all[i])
		}
	}
}

// TestBSIQueueFIFOAcrossCompactions interleaves pushes and issues on both
// BSI queues until each has compacted several times, and checks that
// loads and stores each reach the dcache in push order and that no popped
// op (with its onDone) lingers outside a queue's live window.
func TestBSIQueueFIFOAcrossCompactions(t *testing.T) {
	dev := &recorder{DelayDevice: mem.NewDelayDevice(3)}
	b := newBSI(dev, true)
	b.perCycle = 2
	completed := 0
	onDone := func(*bsiOp) { completed++ }

	const loadBase, storeBase = mem.Addr(0x10_0000), mem.Addr(0x20_0000)
	var nLoads, nStores int
	queues := [2]*bsiQueue{&b.loads, &b.stores}
	names := [2]string{"loads", "stores"}
	var compactions [2]int
	rng := uint64(12345)
	cy := uint64(0)
	step := func() {
		cy++
		heads := [2]int{b.loads.head, b.stores.head}
		b.Tick(cy)
		dev.Tick(cy)
		for i, q := range queues {
			if q.head < heads[i] && q.len() > 0 {
				compactions[i]++
			}
			checkZeroOutside(t, names[i], q)
		}
	}
	for i := 0; i < 4000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := rng >> 33
		for k := uint64(0); k < r%4; k++ {
			b.pushLoad(bsiOp{addr: loadBase + mem.Addr(8*nLoads), kind: mem.Read, onDone: onDone})
			nLoads++
		}
		for k := uint64(0); k < (r>>8)%2; k++ {
			b.pushStore(bsiOp{addr: storeBase + mem.Addr(8*nStores), kind: mem.Write, onDone: onDone})
			nStores++
		}
		step()
	}
	for b.Outstanding() > 0 {
		step()
	}
	if compactions[0] < 3 || compactions[1] < 3 {
		t.Fatalf("compactions with live ops: loads=%d stores=%d, want at least 3 each",
			compactions[0], compactions[1])
	}
	if completed != nLoads+nStores {
		t.Fatalf("completed %d of %d ops", completed, nLoads+nStores)
	}
	var gotLoads, gotStores int
	for _, a := range dev.log {
		if a >= storeBase {
			if want := storeBase + mem.Addr(8*gotStores); a != want {
				t.Fatalf("store %d issued %#x, want %#x", gotStores, a, want)
			}
			gotStores++
		} else {
			if want := loadBase + mem.Addr(8*gotLoads); a != want {
				t.Fatalf("load %d issued %#x, want %#x", gotLoads, a, want)
			}
			gotLoads++
		}
	}
	if gotLoads != nLoads || gotStores != nStores {
		t.Fatalf("issued %d loads and %d stores, want %d and %d", gotLoads, gotStores, nLoads, nStores)
	}
}

// BenchmarkBSIDrain issues one queued load per op from a load queue held
// at a fixed depth: each op pushes one load and ticks the BSI and a
// one-cycle device once. The full-context prefetch provider drives the
// queue past 100,000 ops, so the cost per op must not grow with depth,
// and the steady state must not allocate.
func BenchmarkBSIDrain(b *testing.B) {
	for _, depth := range []int{64, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			dev := mem.NewDelayDevice(1)
			bi := newBSI(dev, true)
			done := 0
			op := bsiOp{addr: regBase, kind: mem.Read, onDone: func(*bsiOp) { done++ }}
			for i := 0; i < depth; i++ {
				bi.pushLoad(op)
			}
			cy := uint64(0)
			drain := func(n int) {
				for i := 0; i < n; i++ {
					cy++
					bi.pushLoad(op)
					bi.Tick(cy)
					dev.Tick(cy)
				}
			}
			drain(4*depth + 16) // grow the slice and request pool to steady state
			b.ReportAllocs()
			b.ResetTimer()
			drain(b.N)
			b.StopTimer()
			if got := bi.loads.len(); got != depth {
				b.Fatalf("queue depth %d, want %d", got, depth)
			}
		})
	}
}
