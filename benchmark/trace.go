package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Op      int    `json:"op"`     // the op the span belongs to; spans of one op share it
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// (untraced passes) records nothing. Only the benchmark's own goroutine
// uses it.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNs = time.Since(r.t0).Nanoseconds()
}

// durationsMs returns the durations of every span with the given name.
func (r *recorder) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// write stores the spans, the folded profile, the runtime deltas and the
// host metadata under opt.work/trace, next to the raw CPU profile.
func (r *recorder) write(opt options, m map[string]metric, t *tracedPass) (string, error) {
	dir := filepath.Join(opt.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", opt.workload, opt.seed))
	if err := os.WriteFile(base+".pprof", t.profile, 0o644); err != nil {
		return "", err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"workload":        opt.workload,
		"seed":            opt.seed,
		"host":            hostInfo(),
		"metrics":         m,
		"profile_samples": t.samples,
		"runtime_delta":   t.pass.rt,
		"spans":           r.spans,
	}, "", " ")
	if err != nil {
		return "", err
	}
	return base + ".json", os.WriteFile(base+".json", doc, 0o644)
}

// tracedPass is one rep run under the CPU profiler with spans recorded.
type tracedPass struct {
	pass     *pass
	profile  []byte // gzipped pprof
	selfFrac map[string]float64
	samples  int
}

func measureTraced(w workload, rec *recorder) (*tracedPass, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	p, err := measure(w, 0, rec) // a zero budget runs the op set once
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	t := &tracedPass{pass: p, profile: buf.Bytes()}
	t.selfFrac, t.samples, err = foldProfile(t.profile)
	return t, err
}

// perLayer computes every metric BENCHMARK.json lists under per_layer.
// Counts, spans and self-time shares come from the traced rep; host
// timings that tracing would perturb (op and hit latencies, cycles/s,
// runtime figures) come from the untraced pass. A layer the workload
// never reaches reports 0.
func perLayer(plain *pass, t *tracedPass, rec *recorder, attempted, failed int) map[string]metric {
	v := map[string]float64{}
	tr := t.pass.reps[0]
	for k, x := range layerCounts(tr.counts) {
		v[k] = x
	}
	for layer, f := range t.selfFrac {
		v[layer+".self_frac"] = f
	}

	v["experiments.fig12_s"] = sum(rec.durationsMs("experiments.fig12")) / 1e3
	v["experiments.fig13_s"] = sum(rec.durationsMs("experiments.fig13")) / 1e3
	v["sim.new_ms_p50"] = median(rec.durationsMs("sim.new"))
	v["sim.run_ms_p50"] = median(rec.durationsMs("sim.run"))
	v["difftest.generate_ms"] = median(rec.durationsMs("difftest.generate"))
	if a := tr.acquire; a != nil {
		v["regfile.acquire_ready_frac"] = ratio(float64(a.ready), float64(a.calls))
		v["regfile.acquire_s"] = a.elapsed.Seconds()
	}

	var walls, instRates, cpus, refs, cycleRates, opMs, slack []float64
	var fh farmHost
	for _, r := range plain.reps {
		walls = append(walls, r.wall.Seconds())
		instRates = append(instRates, float64(r.insts)/r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		refs = append(refs, float64(r.ref)/1e6)
		cycleRates = append(cycleRates, float64(r.counts["sim.cycles"])/r.wall.Seconds())
		opMs = append(opMs, r.opMs...)
		if f := r.farm; f != nil {
			fh.submitMs = append(fh.submitMs, f.submitMs...)
			fh.hitMs = append(fh.hitMs, f.hitMs...)
			fh.queueMs = append(fh.queueMs, f.queueMs...)
			fh.execMs = append(fh.execMs, f.execMs...)
			slack = append(slack, f.pollSlackMs)
			fh.cacheHits += f.cacheHits
			fh.retries += f.retries
		}
	}
	n := float64(len(plain.reps))
	v["wall_s"] = median(walls)
	v["sim_insts_per_s"] = median(instRates)
	v["cpu_s"] = median(cpus)
	v["ref.chunk_ms"] = median(refs)
	v["sim.cycles_per_s"] = median(cycleRates)
	v["sim.op_p50_ms"] = percentile(opMs, 50)
	v["sim.op_p90_ms"] = percentile(opMs, 90)
	v["farm.submit_ms_p50"] = percentile(fh.submitMs, 50)
	v["farm.queue_wait_ms_p50"] = percentile(fh.queueMs, 50)
	v["farm.exec_ms_p50"] = percentile(fh.execMs, 50)
	v["farm.exec_ms_p90"] = percentile(fh.execMs, 90)
	v["farm.poll_slack_ms"] = median(slack)
	v["farm.hit_p50_ms"] = percentile(fh.hitMs, 50)
	v["farm.hit_p90_ms"] = percentile(fh.hitMs, 90)
	v["farm.cache_hits"] = float64(fh.cacheHits) / n
	v["farm.retries"] = float64(fh.retries)

	kinst := float64(plain.insts()) / 1000
	v["runtime.gc_cpu_frac"] = ratio(plain.rt.GCCPUSeconds, plain.rt.CPUSeconds)
	v["runtime.gc_cycles"] = plain.rt.GCCycles / n
	v["runtime.alloc_bytes_per_kinst"] = ratio(plain.rt.AllocBytes, kinst)
	v["trace.overhead_frac"] = tr.wall.Seconds()/median(walls) - 1
	v["error_rate"] = ratio(float64(failed), float64(attempted))

	out := map[string]metric{}
	for _, s := range perLayerMetrics {
		out[s.name] = metric{v[s.name], s.unit}
	}
	return out
}

// runtimeDelta is the change in Go runtime counters over a pass.
type runtimeDelta struct {
	Allocs       float64 `json:"heap_allocs_objects"`
	AllocBytes   float64 `json:"heap_allocs_bytes"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
	CPUSeconds   float64 `json:"cpu_seconds"`
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{val(0), val(1), val(2), val(3), val(4)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.Allocs - b.Allocs, a.AllocBytes - b.AllocBytes,
		a.GCCycles - b.GCCycles, a.GCCPUSeconds - b.GCCPUSeconds, a.CPUSeconds - b.CPUSeconds}
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process
// (Linux; elsewhere peakRSSMB reports the lifetime peak).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see peakRSSMB
}

// peakRSSMB is the peak resident set since the last resetPeakRSS: VmHWM
// from /proc/self/status, or getrusage's lifetime peak where that is
// unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
