package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/workloads"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestMetricListsMatchBenchmarkJSON pins the emitted names and units to
// the declared ones, in order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []metricSpec) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for i, d := range declared {
			if d.Name != emitted[i].name || d.Unit != emitted[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, d.Name, d.Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "regen-saturated,stall-chase,difftest-farm"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
}

// output is one parsed benchmark run.
type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	digests   []string
}

// TestTinyPass runs every workload at self-test size through the real
// command, twice per mode: each run must be correct, emit exactly the
// declared metrics with their units, and repeat its digests exactly.
func TestTinyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark command")
	}
	doc := loadBenchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "virec-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range doc.Workloads {
		for _, trace := range []string{"0", "1"} {
			declared := doc.EndToEnd
			if trace == "1" {
				declared = doc.PerLayer
			}
			var prev *output
			for run := 0; run < 2; run++ {
				out := runTiny(t, bin, dir, w.Name, trace)
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d",
						w.Name, trace, out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(declared) {
					t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(out.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
					}
				}
				if trace == "1" {
					var total float64
					for name, m := range out.Metrics {
						if strings.HasSuffix(name, ".self_frac") {
							total += m.Value
						}
					}
					if math.Abs(total-1) > 1e-9 && total != 0 {
						t.Errorf("%s: self_frac shares sum to %v", w.Name, total)
					}
				}
				if prev != nil && strings.Join(prev.digests, "\n") != strings.Join(out.digests, "\n") {
					t.Errorf("%s trace=%s: digests differ between passes:\n%v\n%v",
						w.Name, trace, prev.digests, out.digests)
				}
				prev = out
			}
		}
	}
}

func runTiny(t *testing.T, bin, dir, workload, trace string) *output {
	t.Helper()
	cmd := exec.Command(bin, "-tiny", "-workload", workload, "-seed", "7",
		"-seconds", "0", "-trace", trace, "-work", filepath.Join(dir, "work"))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") {
			out.digests = append(out.digests, l)
		}
	}
	return &out
}

// TestFailedSimCountsAsError runs a chase op that must fail (its cycle
// budget is far too small) next to one that succeeds: the run completes,
// the failure lands in failed and error_rate, and the result is not
// correct.
func TestFailedSimCountsAsError(t *testing.T) {
	wl, ok := workloads.ByName("chase")
	if !ok {
		t.Fatal("no chase workload")
	}
	good := sim.Config{Kind: sim.Banked, ThreadsPerCore: 1, Workload: wl, Iters: 16}
	bad := good
	bad.MaxCycles = 100
	opt := options{workload: "stall-chase", trace: true, work: t.TempDir()}
	rec := newRecorder()
	res, err := runWith(opt, &chase{cfgs: []sim.Config{good, bad}}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Error("a run with a failed sim reported correct")
	}
	if res.attempted != 4 || res.failed != 2 { // untraced + traced pass
		t.Errorf("attempted=%d failed=%d, want 4 and 2", res.attempted, res.failed)
	}
	if got := res.metrics["error_rate"].Value; got != 0.5 {
		t.Errorf("error_rate = %v, want 0.5", got)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/virec/virec/internal/cpu.(*Core).Tick":                                       "cpu",
		"github.com/virec/virec/internal/cpu/regfile.(*ViReC).Acquire":                           "regfile",
		"github.com/virec/virec/internal/sweep.MapCtx[go.shape.uint64,go.shape.struct {}].func1": "sweep",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"github.com/virec/virec/internal/isa.Exec":              "unattributed",
		"net/http.(*conn).serve":                                "unattributed",
		"github.com/virec/virec/internal/mem/dram.(*DRAM).Tick": "dram",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(packageOf(%q)) = %s, want %s", fn, got, want)
		}
	}
}

// TestSamplers checks that the samplers stay out of what a rep
// measures: while this goroutine sleeps, each sampler runs several
// chunks, yet workCPU barely moves, the reference data stays off the Go
// heap (so it cannot change the program's GC pacing), and the gauge
// normalises as documented.
func TestSamplers(t *testing.T) {
	before := readRuntime()
	ss, err := startSamplers()
	if err != nil {
		t.Fatal(err)
	}
	sampling = ss
	c0 := workCPU()
	time.Sleep(3*refEvery + refEvery/2)
	used := workCPU() - c0
	sampling = nil
	gauge, err := ss.finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		if len(s.chunks) < 3 {
			t.Errorf("sampler %d ran %d chunks, want at least 3", i, len(s.chunks))
		}
	}
	if used > 10*time.Millisecond {
		t.Errorf("workCPU grew by %v while only %d samplers ran", used, len(ss))
	}
	if grew := readRuntime().sub(before).AllocBytes; grew > refBytes/16 {
		t.Errorf("sampling allocated %v heap bytes; the reference belongs off the heap", grew)
	}
	if got := normalise(3*gauge, gauge); (got - 3*refNominal).Abs() > time.Nanosecond {
		t.Errorf("normalise(3g, g) = %v, want %v", got, 3*refNominal)
	}
}
