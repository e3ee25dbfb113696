package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/farm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// defaultSeed is the seed tuning runs use; heldOutSeed is kept for
// checking a claimed gain on inputs not seen while the change was made.
const (
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 20251017
)

// workload is one named set of inputs. Set-up happens in the
// constructor; rep runs the whole op set once. rec is nil on untraced
// passes.
type workload interface {
	rep(rec *recorder) (*rep, error)
	close() error
}

// rep is what one pass over a workload's op set measured.
type rep struct {
	wall        time.Duration
	cpu         time.Duration // process CPU time (all threads but the samplers') over the same interval as wall
	ref         time.Duration // host reference gauge over the rep (see samplers)
	ops, failed int
	insts       uint64    // committed (for difftest: checked) instructions
	counts      counts    // deterministic: must repeat exactly across reps
	outputs     string    // digest of the workload's output bytes, if any
	outputsName string    // what outputs digests ("reports", "results")
	problem     string    // an output check that failed (not an op failure)
	opMs        []float64 // per-op host latency (stall-chase sims)
	rssMB       float64   // peak resident set during the rep
	acquire     *acquireStats
	farm        *farmHost
}

// normCPU is the rep's CPU time in the reference host's seconds.
func (r *rep) normCPU() time.Duration { return normalise(r.cpu, r.ref) }

var workloadByName = map[string]func(options, *recorder) (workload, error){
	"regen-saturated": newRegen,
	"stall-chase":     newChase,
	"difftest-farm":   newDifftestFarm,
}

func workloadNames() []string {
	var out []string
	for n := range workloadByName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// splitmix is the seed expander: every drawn input comes from it.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---- regen-saturated ------------------------------------------------------

// regenExperiments are regenerated in this order; both are 8-thread
// saturated sweeps among the six experiments that dominate full regen.
var regenExperiments = []string{"fig12", "fig13"}

// goldenReports is the committed full-size regeneration output.
const goldenReports = "experiments_output.txt"

type regen struct {
	quick  bool
	golden map[string]string // experiment → committed rendered section
}

func newRegen(opt options, _ *recorder) (workload, error) {
	w := &regen{quick: opt.tiny}
	if opt.tiny {
		return w, nil
	}
	b, err := os.ReadFile(goldenReports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "virec-bench: %v: rendered reports are digested but not compared\n", err)
		return w, nil
	}
	w.golden = splitSections(string(b))
	return w, nil
}

// splitSections cuts `virec-experiments -exp all` output into the text
// each experiment printed, keyed by name.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	name, start := "", 0
	flush := func(end int) {
		if name != "" {
			out[name] = strings.TrimRight(text[start:end], "\n")
		}
	}
	for i := 0; i < len(text); {
		j := strings.IndexByte(text[i:], '\n')
		if j < 0 {
			j = len(text) - i
		}
		if line := text[i : i+j]; strings.HasPrefix(line, "== ") {
			flush(i)
			name, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			start = i
		}
		i += j + 1
	}
	flush(len(text))
	return out
}

func (w *regen) rep(rec *recorder) (*rep, error) {
	r := &rep{counts: counts{}, outputsName: "reports"}
	opt := experiments.Options{
		Quick:    w.quick,
		Parallel: 1,
		OnResult: func(res *sim.Result) {
			r.counts.addResult(res)
			r.insts += res.Insts
		},
	}
	h := sha256.New()
	t0, c0 := time.Now(), workCPU()
	for i, name := range regenExperiments {
		id := rec.begin("experiments."+name, -1, i)
		report, err := experiments.Run(name, opt)
		rec.end(id)
		r.ops++
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "virec-bench:", err)
			continue
		}
		text := report.String()
		h.Write([]byte(text))
		if want, ok := w.golden[name]; w.golden != nil && (!ok || want != strings.TrimRight(text, "\n")) {
			r.problem = fmt.Sprintf("%s report differs from %s", name, goldenReports)
		}
	}
	r.wall, r.cpu = time.Since(t0), workCPU()-c0
	r.outputs = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

func (w *regen) close() error { return nil }

// ---- stall-chase ----------------------------------------------------------

// chase runs pointer-chase sims one at a time; one op is sim.New plus
// System.Run. The three configurations are BenchmarkSimulatorThroughput's
// stall-dominated ones.
type chase struct {
	cfgs []sim.Config
}

func newChase(opt options, _ *recorder) (workload, error) {
	ops, iters := 60, 4096
	if opt.tiny {
		ops, iters = 6, 256
	}
	wl, ok := workloads.ByName("chase")
	if !ok {
		return nil, fmt.Errorf("no chase workload")
	}
	base := []sim.Config{
		{Kind: sim.Banked, ThreadsPerCore: 1, FixedMemLatency: 300},
		{Kind: sim.Banked, ThreadsPerCore: 1},
		{Kind: sim.ViReC, ThreadsPerCore: 2, ContextPct: 100, Policy: vrmu.LRC},
	}
	rng := splitmix{opt.seed}
	w := &chase{}
	for i := 0; i < ops; i++ {
		c := base[i%len(base)]
		c.Workload, c.Iters = wl, iters
		c.Seed = rng.next() | 1 // zero selects the simulator's default seed
		w.cfgs = append(w.cfgs, c)
	}
	return w, nil
}

func (w *chase) rep(rec *recorder) (*rep, error) {
	r := &rep{counts: counts{}}
	if rec != nil {
		r.acquire = &acquireStats{}
	}
	t0, c0 := time.Now(), workCPU()
	for i, cfg := range w.cfgs {
		if r.acquire != nil {
			cfg.WrapProvider = r.acquire.wrap
		}
		r.ops++
		opStart := time.Now()
		op := rec.begin("sim.op", -1, i)
		id := rec.begin("sim.new", op, i)
		sys, err := sim.New(cfg)
		rec.end(id)
		var res *sim.Result
		if err == nil {
			id = rec.begin("sim.run", op, i)
			res, err = sys.Run()
			rec.end(id)
		}
		rec.end(op)
		r.opMs = append(r.opMs, float64(time.Since(opStart).Nanoseconds())/1e6)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "virec-bench: chase op %d: %v\n", i, firstLine(err.Error()))
			continue
		}
		r.counts.addResult(res)
		r.counts["sim.skipped"] += sys.SkipAheadCycles()
		r.insts += res.Insts
	}
	r.wall, r.cpu = time.Since(t0), workCPU()-c0
	return r, nil
}

func (w *chase) close() error { return nil }

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// acquireStats counts register-provider Acquire calls in the traced
// chase pass through a Config.WrapProvider interposer.
type acquireStats struct {
	calls, ready uint64
	elapsed      time.Duration
}

type timedProvider struct {
	cpu.Provider
	st *acquireStats
}

func (p *timedProvider) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg) bool {
	t := time.Now()
	ok := p.Provider.Acquire(thread, in, needSrcs)
	p.st.elapsed += time.Since(t)
	p.st.calls++
	if ok {
		p.st.ready++
	}
	return ok
}

// timedSkipProvider keeps clock skip-ahead available when the wrapped
// provider supports it, so the traced run skips the same cycles.
type timedSkipProvider struct {
	*timedProvider
	cpu.SkipSupport
}

func (st *acquireStats) wrap(_ int, p cpu.Provider) cpu.Provider {
	tp := &timedProvider{Provider: p, st: st}
	if ss, ok := p.(cpu.SkipSupport); ok {
		return timedSkipProvider{tp, ss}
	}
	return tp
}

// ---- difftest-farm --------------------------------------------------------

// difftestFarm sends a batch of generated kernels, each checked across
// the full difftest.Matrix(), to an in-process farm served over loopback
// HTTP, then resubmits the batch so every job is a cache hit.
type difftestFarm struct {
	work  string
	specs []*farm.Spec
	next  *farmInstance // opened during set-up for the first rep
}

// The batch holds short kernels only — at most maxKernelDyn dynamic
// instructions per thread — so every job is a many-short-sims job whose
// cost is dominated by per-sim fixed work, and no single job sets the
// makespan: per-kernel check cost is heavy-tailed (0.06–7.5 s single-
// threaded over 164 probed seeds on a 2-vCPU Xeon), which would move the
// makespan by more than its bound.
// fixedKernels come from the regression seeds 0, 1, 2, ... in order (what
// `virec-difftest -n N -farm URL` walks); drawnKernels are drawn from the
// benchmark seed, so a held-out seed checks kernels no tuning run saw.
const (
	fixedKernels = 52
	drawnKernels = 2
	maxKernelDyn = 256
)

func newDifftestFarm(opt options, rec *recorder) (workload, error) {
	fixed, drawn := fixedKernels, drawnKernels
	if opt.tiny {
		fixed, drawn = 2, 1
	}
	w := &difftestFarm{work: opt.work}
	var seeds []uint64
	pick := func(next func() uint64, n int) {
		for want := len(seeds) + n; len(seeds) < want; {
			seed := next()
			id := rec.begin("difftest.generate", -1, len(seeds))
			k := difftest.Generate(seed, difftest.GenConfigForSeed(seed))
			rec.end(id)
			if k.MaxDyn <= maxKernelDyn {
				seeds = append(seeds, seed)
			}
		}
	}
	regression := uint64(0)
	pick(func() uint64 { regression++; return regression - 1 }, fixed)
	rng := splitmix{opt.seed}
	pick(rng.next, drawn)
	for _, seed := range seeds {
		w.specs = append(w.specs, &farm.Spec{
			Kind:     farm.KindDifftest,
			Difftest: &farm.DifftestSpec{Seed: seed},
		})
	}
	var err error
	w.next, err = openFarm(opt.work)
	return w, err
}

// farmInstance is one farm with the daemon's default options, on a fresh
// directory (so its cache starts cold), served over httptest loopback.
type farmInstance struct {
	dir    string
	f      *farm.Farm
	srv    *httptest.Server
	client *farm.Client
}

func openFarm(work string) (*farmInstance, error) {
	dir, err := os.MkdirTemp(work, "farm-")
	if err != nil {
		return nil, err
	}
	f, err := farm.Open(farm.Options{
		Dir:            dir,
		Workers:        runtime.NumCPU(),
		QueueCap:       1024,
		MaxRetries:     3,
		BackoffBase:    250 * time.Millisecond,
		BackoffMax:     15 * time.Second,
		JobDeadline:    15 * time.Minute,
		SyncJournal:    true,
		HeartbeatEvery: 1 << 16,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.Start()
	srv := httptest.NewServer(farm.NewServer(f))
	return &farmInstance{dir: dir, f: f, srv: srv, client: farm.NewClient(srv.URL)}, nil
}

func (fi *farmInstance) close() error {
	fi.srv.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := fi.f.Drain(ctx)
	if rerr := os.RemoveAll(fi.dir); err == nil {
		err = rerr
	}
	return err
}

// farmHost holds the farm's host-side timings from one rep.
type farmHost struct {
	submitMs, hitMs, queueMs, execMs []float64
	pollSlackMs                      float64
	cacheHits, retries               uint64
}

// opTimeout bounds any single wait on the farm.
const opTimeout = 150 * time.Second

func (w *difftestFarm) rep(rec *recorder) (*rep, error) {
	fi := w.next
	w.next = nil
	if fi == nil {
		var err error
		if fi, err = openFarm(w.work); err != nil {
			return nil, err
		}
	}
	defer fi.close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	r := &rep{counts: counts{}, outputsName: "results", farm: &farmHost{}}
	c := fi.client
	t0, c0 := time.Now(), workCPU()
	ids := make([]uint64, len(w.specs))
	for i, spec := range w.specs {
		id := rec.begin("farm.submit", -1, i)
		ts := time.Now()
		job, err := c.Submit(ctx, spec)
		r.farm.submitMs = append(r.farm.submitMs, msSince(ts))
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("submitting kernel %d: %w", spec.Difftest.Seed, err)
		}
		ids[i] = job.ID
	}
	cold := make([][]byte, len(w.specs))
	for i, id := range ids {
		sp := rec.begin("farm.wait", -1, i)
		out, _, err := c.WaitResult(ctx, id)
		rec.end(sp)
		r.ops++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "virec-bench: kernel %d: %v\n", w.specs[i].Difftest.Seed, err)
			continue
		}
		cold[i] = out
		var res farm.DifftestResult
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("kernel %d: bad farm result: %w", w.specs[i].Difftest.Seed, err)
		}
		r.counts["difftest.kernels"]++
		r.counts["difftest.commits"] += res.Commits
		r.counts["difftest.scenarios"] += uint64(res.Scenarios)
		r.insts += res.Commits
		if res.Divergence != nil {
			r.counts["difftest.divergences"]++
			r.failed++
			fmt.Fprintf(os.Stderr, "virec-bench: kernel %d: %v\n", w.specs[i].Difftest.Seed, res.Divergence)
		}
	}
	end := time.Now()
	r.wall, r.cpu = end.Sub(t0), workCPU()-c0

	// Every job again: each must be served without executing (the farm
	// coalesces it onto the done job), byte-identical to its cold result.
	h := sha256.New()
	for i, spec := range w.specs {
		sp := rec.begin("farm.hit", -1, i)
		ts := time.Now()
		job, err := c.Submit(ctx, spec)
		var out []byte
		if err == nil {
			out, _, err = c.WaitResult(ctx, job.ID)
		}
		r.farm.hitMs = append(r.farm.hitMs, msSince(ts))
		rec.end(sp)
		r.ops++
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "virec-bench: resubmitted kernel %d: %v\n", spec.Difftest.Seed, err)
		case job.State != farm.StateDone || string(out) != string(cold[i]):
			r.failed++
			r.problem = fmt.Sprintf("kernel %d: resubmission was not a byte-identical cache hit", spec.Difftest.Seed)
		}
		h.Write(out)
	}
	r.outputs = hex.EncodeToString(h.Sum(nil))

	var lastDone int64
	for _, id := range ids {
		_, events, err := c.JobEvents(ctx, id)
		if err != nil {
			return nil, err
		}
		var enq, start, done int64
		for _, ev := range events {
			switch ev.Type {
			case "enqueue":
				enq = ev.TS
			case "start":
				start = ev.TS
			case "done":
				done = ev.TS
			}
		}
		if start == 0 || done == 0 {
			continue
		}
		r.farm.queueMs = append(r.farm.queueMs, float64(start-enq)/1e6)
		r.farm.execMs = append(r.farm.execMs, float64(done-start)/1e6)
		lastDone = max(lastDone, done)
	}
	if lastDone > 0 {
		r.farm.pollSlackMs = float64(end.UnixNano()-lastDone) / 1e6
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	r.farm.cacheHits = snap.Counter("farm/cache_hits")
	r.farm.retries = snap.Counter("farm/retries")
	if n := snap.Counter("farm/failed") + snap.Counter("farm/quarantined"); n > 0 {
		r.problem = fmt.Sprintf("%d farm jobs failed or were quarantined", n)
	}
	return r, nil
}

func (w *difftestFarm) close() error {
	if w.next != nil {
		return w.next.close()
	}
	return nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
