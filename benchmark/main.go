// Command virec-bench is the repository's benchmark: it drives the
// simulator through its public entry points on one named workload and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit. The last line of standard output is the JSON
// result; the lines before it carry SHA-256 digests of the deterministic
// outputs so runs and commits can be diffed. See README.md.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload stall-chase --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory for farm state and trace output
	tiny     bool   // self-test size: every workload shrunk to a smoke pass
}

// probes is how many times a run re-executes itself to time set-up; the
// reported setup_s is their median normalised CPU time.
const probes = 21

func main() {
	var opt options
	var trace int
	var probe bool
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, fmt.Sprintf(
		"input seed: drives stall-chase data seeds and difftest-farm's drawn kernels (%d is held out from tuning)", heldOutSeed))
	flag.Float64Var(&opt.seconds, "seconds", 30, "measurement budget in seconds (at least one pass of the op set runs)")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a separate traced pass; 0 prints end-to-end metrics")
	flag.StringVar(&opt.work, "work", ".work", "scratch directory for farm state and trace output")
	flag.BoolVar(&probe, "setup-probe", false, "internal: perform set-up only, print \"ready\" and the CPU time used, and exit")
	flag.BoolVar(&opt.tiny, "tiny", false, "self-test size: shrink every workload to a smoke pass")
	flag.Parse()
	if _, ok := workloadByName[opt.workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", ")))
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	opt.trace = trace == 1
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fatal(err)
	}

	if probe {
		w, err := workloadByName[opt.workload](opt, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("ready", processCPU().Nanoseconds())
		if err := w.close(); err != nil {
			fatal(err)
		}
		return
	}

	var setup []float64
	if !opt.trace {
		var err error
		if setup, err = probeSetup(opt); err != nil {
			fatal(err)
		}
	}
	res, err := run(opt)
	if err != nil {
		fatal(err)
	}
	if !opt.trace {
		res.metrics["setup_s"] = metric{median(setup), "s"}
	}
	for _, d := range res.digests {
		fmt.Println(d)
	}
	if res.traceFile != "" {
		fmt.Println("trace written to", res.traceFile)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "virec-bench:", err)
	os.Exit(2)
}

// probeSetup times set-up from process start: it re-executes this binary
// in -setup-probe mode, which pays package initialisation (kernel
// assembly, hint synthesis), input generation and, for difftest-farm,
// farm open/serve before printing "ready" with the CPU time the process
// has used so far. That CPU time, user plus system over every thread and
// including exec, is the probe's set-up time; samplers gauge the host
// while the probes run, to normalise it. Each probe is waited for.
func probeSetup(opt options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ss, err := startSamplers()
	if err != nil {
		return nil, err
	}
	var raw []time.Duration
	for i := 0; i < probes && err == nil; i++ {
		var cpu time.Duration
		if cpu, err = probeOnce(self, opt); err == nil {
			raw = append(raw, cpu)
		}
	}
	gauge, gerr := ss.finish()
	if err != nil {
		return nil, err
	}
	if gerr != nil {
		return nil, gerr
	}
	out := make([]float64, len(raw))
	for i, cpu := range raw {
		out[i] = normalise(cpu, gauge).Seconds()
	}
	return out, nil
}

// probeOnce runs one set-up probe and returns the CPU time it reports.
func probeOnce(self string, opt options) (time.Duration, error) {
	cmd := exec.Command(self, "-setup-probe", "-workload", opt.workload,
		"-seed", fmt.Sprint(opt.seed), "-work", opt.work, fmt.Sprintf("-tiny=%v", opt.tiny))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	if werr := cmd.Wait(); werr != nil {
		return 0, fmt.Errorf("setup probe: %w", werr)
	}
	var ns int64
	if _, err := fmt.Sscanf(line, "ready %d\n", &ns); rerr != nil || err != nil || ns <= 0 {
		return 0, fmt.Errorf("setup probe: want \"ready <cpu-ns>\", got %q (%v)", line, rerr)
	}
	return time.Duration(ns), nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	digests           []string // "digest <what> sha256:<hex>" lines
	traceFile         string
}

// run sets the workload up, measures its op set for the time budget with
// tracing off, and with opt.trace adds one traced pass whose simulated
// counts and outputs must equal the untraced ones.
func run(opt options) (*result, error) {
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	w, err := workloadByName[opt.workload](opt, rec)
	if err != nil {
		return nil, err
	}
	defer w.close()
	return runWith(opt, w, rec)
}

// runWith measures an already set-up workload.
func runWith(opt options, w workload, rec *recorder) (*result, error) {
	plain, err := measure(w, opt.seconds, nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		correct:   plain.consistent && plain.failed == 0,
		attempted: plain.attempted,
		failed:    plain.failed,
		metrics:   map[string]metric{},
	}
	for _, r := range plain.reps {
		if r.problem != "" {
			res.correct = false
			fmt.Fprintln(os.Stderr, "virec-bench:", r.problem)
		}
	}
	first := plain.reps[0]
	res.digests = append(res.digests, "digest counts sha256:"+first.counts.digest())
	if first.outputsName != "" {
		res.digests = append(res.digests, "digest "+first.outputsName+" sha256:"+first.outputs)
	}
	if !opt.trace {
		res.metrics = endToEnd(plain)
		return res, nil
	}

	traced, err := measureTraced(w, rec)
	if err != nil {
		return nil, err
	}
	tr := traced.pass.reps[0]
	res.attempted += traced.pass.attempted
	res.failed += traced.pass.failed
	if traced.pass.failed > 0 || tr.problem != "" || tr.outputs != first.outputs {
		res.correct = false
	}
	if tr.counts.digest() != first.counts.digest() {
		res.correct = false
		fmt.Fprintf(os.Stderr, "virec-bench: traced counts differ from untraced:\n%s",
			diffCounts(first.counts, tr.counts))
	}
	res.metrics = perLayer(plain, traced, rec, res.attempted, res.failed)
	res.traceFile, err = rec.write(opt, res.metrics, traced)
	return res, err
}

// pass aggregates the reps of one measurement pass.
type pass struct {
	reps              []*rep
	attempted, failed int
	consistent        bool // every rep produced identical deterministic counts
	rt                runtimeDelta
}

// measure repeats the op set (always at least once) until another
// repetition would end more than half a repetition past the budget.
// Samplers gauge the host reference throughout each repetition.
func measure(w workload, seconds float64, rec *recorder) (*pass, error) {
	p := &pass{consistent: true}
	before := readRuntime()
	start := time.Now()
	for {
		resetPeakRSS()
		var err error
		if sampling, err = startSamplers(); err != nil {
			return nil, err
		}
		r, err := w.rep(rec)
		gauge, gerr := sampling.finish()
		n := len(sampling)
		sampling = nil
		if err != nil {
			return nil, err
		}
		if gerr != nil {
			return nil, gerr
		}
		r.rssMB = peakRSSMB() - float64(n*refBytes)/(1<<20) // the samplers' pages were resident throughout
		r.ref = gauge
		p.add(r)
		fmt.Fprintf(os.Stderr, "rep %d: %d ops, wall %.3fs, cpu %.3fs, reference %.2fms, normalised cpu %.3fs\n",
			len(p.reps)-1, r.ops, r.wall.Seconds(), r.cpu.Seconds(), float64(r.ref)/1e6, r.normCPU().Seconds())
		if elapsed := time.Since(start); (elapsed + r.wall/2).Seconds() > seconds {
			break
		}
	}
	p.rt = readRuntime().sub(before)
	return p, nil
}

func (p *pass) add(r *rep) {
	if len(p.reps) > 0 && (r.counts.digest() != p.reps[0].counts.digest() || r.outputs != p.reps[0].outputs) {
		p.consistent = false
		fmt.Fprintf(os.Stderr, "virec-bench: rep %d counts differ from rep 0:\n%s",
			len(p.reps), diffCounts(p.reps[0].counts, r.counts))
	}
	p.reps = append(p.reps, r)
	p.attempted += r.ops
	p.failed += r.failed
}

// insts is the total committed (checked) instructions over the pass.
func (p *pass) insts() uint64 {
	var n uint64
	for _, r := range p.reps {
		n += r.insts
	}
	return n
}

// endToEnd computes the metrics BENCHMARK.json lists under end_to_end
// (setup_s is added by the caller from the probes). Host cost is process
// CPU time normalised by the host reference (see hostref.go), not wall
// time: on a shared host a run's wall time grows with however long it
// waits for a CPU, and its CPU time with its neighbours' load, neither of
// which says anything about the program.
func endToEnd(p *pass) map[string]metric {
	var cpus, rates, rss []float64
	for _, r := range p.reps {
		cpus = append(cpus, r.normCPU().Seconds())
		rates = append(rates, float64(r.insts)/r.normCPU().Seconds())
		rss = append(rss, r.rssMB)
	}
	return map[string]metric{
		"norm_cpu_s":               {median(cpus), "s"},
		"sim_insts_per_norm_cpu_s": {median(rates), "1/s"},
		"allocs_per_kinst":         {ratio(p.rt.Allocs, float64(p.insts())/1000), "1/kinst"},
		"max_rss_mb":               {median(rss), "MB"},
	}
}

// median of a non-empty sample (0 for an empty one).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(p/100*float64(len(s))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostInfo is recorded with each traced result.
func hostInfo() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
