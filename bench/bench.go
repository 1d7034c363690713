// Package bench is pribench, the repository's benchmark: four workloads
// that exercise prisim the way its users do — regenerating the paper's
// figures, sampled simulation with long warm-ups, a simulation service
// under a mixed request load, and a coordinator fanning a matrix out to
// workers — each checked for correct output, measured end to end with
// tracing off, and broken down by layer in a separate traced run.
//
// Every input derives from the run's seed. Load comes from one process
// with at most two simulation workers and two client connections, and
// every Engine the benchmark builds uses WithParallelism(2).
package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prisim"
	"prisim/internal/workloads"
)

// Workers is the simulation parallelism of every Engine the benchmark
// builds, and the number of concurrent callers it drives load with.
const Workers = 2

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64 // how long the measured loop runs
	Trace    bool    // report per-layer metrics from a traced run
	WorkDir  string  // scratch files (result stores); emptied after the run
	Spans    string  // when set, a traced run writes its spans here
	Log      io.Writer

	// Tiny shrinks every simulation budget so the whole run takes about a
	// second; the tests use it. Results are still checked.
	Tiny bool
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	run  func(ctx context.Context, r *run) error
}

// Workloads lists the benchmark's workloads in order.
var Workloads = []Workload{
	{"paper-figures", "the researcher's headline job: a cold regeneration of every default priexp figure, nearly all timed-pipeline time", runPaperFigures},
	{"warmup-sampled", "sampled simulation: long seeded fast-forwards and short timed windows, mostly emulator, predictor and cache time", runWarmupSampled},
	{"service-mix", "prisimd under two closed-loop clients: cold, store-served, program and check requests, the only load on HTTP, JSON, asm and the store", runServiceMix},
	{"fabric-matrix", "a coordinator dispatching cold seeded matrices to two worker daemons, then serving warm resubmissions with zero dispatches", runFabricMatrix},
}

// Value is one metric reading.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is everything one run measured. Metrics holds the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced run;
// Extra holds workload-specific layer metrics that not every workload
// can measure; Detail holds sample counts, percentiles and check results.
type Record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	Extra     map[string]Value `json:"extra,omitempty"`
	Detail    map[string]any   `json:"detail"`
	Failures  []string         `json:"failures,omitempty"`
}

// Summary is the one-line result the benchmark prints last.
type Summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Summary drops the record's detail.
func (rec *Record) Summary() Summary {
	return Summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}
}

// run is the state of one benchmark run: the samples the workload's
// measured loop collects and the layer metrics its traced run adds.
type run struct {
	cfg Config
	tr  *Tracer // nil unless traced

	setups   []time.Duration
	builds   []time.Duration // building the workload suite, once per setup
	passes   []time.Duration
	measured time.Duration // the measured loop's elapsed time
	cold     []time.Duration
	warm     []time.Duration
	ops      int

	// A traced run's passes alternate between untraced and traced; their
	// walls give the tracing overhead. loopFrom and loopTo bound the loop
	// on the tracer's clock.
	untracedPasses, tracedPasses []time.Duration
	loopFrom, loopTo             int64

	engines   []prisim.CacheStats // one per Engine, at the end of its life
	attempted int
	failed    int
	failures  []string

	layer  map[string]float64
	extra  map[string]Value
	detail map[string]any
}

// Run executes one workload and returns its record. An error means the run
// could not be carried out; failed checks and operations show in the
// record instead.
func Run(ctx context.Context, cfg Config) (*Record, error) {
	var w *Workload
	for i := range Workloads {
		if Workloads[i].Name == cfg.Workload {
			w = &Workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, layer: map[string]float64{}, extra: map[string]Value{}, detail: map[string]any{}}
	if cfg.Trace {
		r.tr = NewTracer()
	}
	if err := w.run(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if cfg.Trace && cfg.Spans != "" {
		if err := r.tr.WriteFile(cfg.Spans); err != nil {
			return nil, err
		}
	}
	return r.record(), nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.Log, r.cfg.Workload+": "+format+"\n", args...)
}

// attempt counts n operations or checks about to be made.
func (r *run) attempt(n int) { r.attempted += n }

// fail records one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one check and records it when it fails.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// setupRuns is how often a run sets its workload up; setup_s is the median.
// One set-up takes tens of milliseconds, so a single one mostly measures
// the moment it ran at.
const setupRuns = 11

// setup builds the workload suite and then the workload's system under
// test setupRuns times, timing each, and keeps the last instance. Every
// earlier instance is torn down. Each set-up starts from a collected heap,
// so the collector's work in one does not depend on the one before.
func setup[T any](r *run, build func() (T, error), teardown func(T)) (T, error) {
	var inst T
	for i := range setupRuns {
		runtime.GC()
		start := time.Now()
		r.builds = append(r.builds, buildSuite())
		v, err := build()
		if err != nil {
			return inst, err
		}
		r.setups = append(r.setups, time.Since(start))
		if i < setupRuns-1 && teardown != nil {
			teardown(v)
		}
		inst = v
	}
	return inst, nil
}

// buildSuite assembles every workload's program image, the work a user of
// the workload suite pays before simulating, and returns how long it took.
func buildSuite() time.Duration {
	start := time.Now()
	for _, w := range workloads.All() {
		w.Build(0)
	}
	return time.Since(start)
}

// loop runs the measured passes for the configured seconds on lanes
// concurrent callers. Each lane starts another pass only while one more at
// its last pass's pace would end in time, and runs at least one. In a
// traced run each lane alternates untraced and traced passes (at least
// one of each), so the two can be compared under the same conditions.
func (r *run) loop(ctx context.Context, lanes int, pass func(lane, i int, tr *Tracer) error) error {
	budget := time.Duration(r.cfg.Seconds * float64(time.Second))
	type laneOut struct {
		walls, untraced, traced []time.Duration
		err                     error
	}
	outs := make([]laneOut, lanes)
	r.loopFrom = r.tr.Now()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[lane]
			for i := 0; ; i++ {
				if o.err = ctx.Err(); o.err != nil {
					return
				}
				var tr *Tracer
				if i%2 == 1 {
					tr = r.tr
				}
				t0 := time.Now()
				if o.err = pass(lane, i, tr); o.err != nil {
					return
				}
				w := time.Since(t0)
				o.walls = append(o.walls, w)
				if tr == nil {
					o.untraced = append(o.untraced, w)
				} else {
					o.traced = append(o.traced, w)
				}
				if time.Since(start)+w > budget && (r.tr == nil || i >= 1) {
					return
				}
			}
		}()
	}
	wg.Wait()
	r.measured = time.Since(start)
	r.loopTo = r.tr.Now()
	r.detail["loop_cpu_s"] = (cpuTime() - cpu0).Seconds()
	r.detail["loop_s"] = r.measured.Seconds()
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
		r.passes = append(r.passes, o.walls...)
		r.untracedPasses = append(r.untracedPasses, o.untraced...)
		r.tracedPasses = append(r.tracedPasses, o.traced...)
	}
	return nil
}

// loopCoverage is the share of the traced passes' time that the spans
// recorded during them cover.
func (r *run) loopCoverage() float64 {
	spans, parents := Family(r.tr.Spans(), r.loopFrom, r.loopTo)
	var traced time.Duration
	for _, w := range r.tracedPasses {
		traced += w
	}
	return Coverage(spans, parents, 1, traced)
}

// record assembles the run's metrics.
func (r *run) record() *Record {
	rec := &Record{
		Workload:  r.cfg.Workload,
		Seed:      r.cfg.Seed,
		Seconds:   r.cfg.Seconds,
		Trace:     r.cfg.Trace,
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.failed == 0,
		Metrics:   map[string]Value{},
		Extra:     r.extra,
		Detail:    r.detail,
		Failures:  r.failures,
	}
	cold, warm := millis(r.cold), millis(r.warm)
	coldTail, warmTail := TailPercentile(len(cold)), TailPercentile(len(warm))
	e2e := map[string]float64{
		"setup_s":     Median(seconds(r.setups)),
		"wall_s":      Median(seconds(r.passes)),
		"ops_per_s":   float64(r.ops) / r.measured.Seconds(),
		"cold_p50_ms": Median(cold),
		"warm_p50_ms": Median(warm),
		"peak_rss_mb": peakRSSMB(),
	}
	if !r.cfg.Trace {
		r.extra["cold_tail_ms"] = Value{Percentile(cold, coldTail), "ms"}
		r.extra["warm_tail_ms"] = Value{Percentile(warm, warmTail), "ms"}
	}
	r.detail["passes"] = len(r.passes)
	r.detail["pass_s"] = seconds(r.passes)
	r.detail["ops"] = r.ops
	r.detail["cold_samples"] = len(cold)
	r.detail["cold_tail_percentile"] = coldTail
	r.detail["warm_samples"] = len(warm)
	r.detail["warm_tail_percentile"] = warmTail
	r.detail["setup_samples_s"] = seconds(r.setups)
	r.detail["host"] = map[string]any{"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
	defs := EndToEnd
	values := e2e
	if r.cfg.Trace {
		r.layerCommon()
		defs, values = PerLayer, r.layer
		r.detail["end_to_end_traced_run"] = e2e
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = Value{values[d.Name], d.Unit}
	}
	return rec
}

// layerCommon adds the per-layer metrics every workload derives the same
// way: suite build time, engine cache counters, and tracing overhead.
func (r *run) layerCommon() {
	r.layer["workloads.build_ms"] = Median(millis(r.builds))
	var sum prisim.CacheStats
	for _, cs := range r.engines {
		sum.Executed += cs.Executed
		sum.Hits += cs.Hits
		sum.Coalesced += cs.Coalesced
		sum.SnapshotBuilds += cs.SnapshotBuilds
		sum.SnapshotHits += cs.SnapshotHits
		sum.SnapshotBytes += cs.SnapshotBytes
	}
	perPass := float64(max(1, len(r.passes)))
	r.layer["harness.executed"] = float64(sum.Executed) / perPass
	r.layer["harness.hits"] = float64(sum.Hits) / perPass
	r.layer["harness.coalesced"] = float64(sum.Coalesced) / perPass
	r.layer["harness.snapshot_builds"] = float64(sum.SnapshotBuilds) / perPass
	r.layer["harness.snapshot_hit_ratio"] = ratio(float64(sum.SnapshotHits), float64(sum.SnapshotHits+sum.SnapshotBuilds))
	r.layer["harness.snapshot_mb"] = float64(sum.SnapshotBytes) / 1e6 / float64(max(1, len(r.engines)))
	untraced, traced := Median(seconds(r.untracedPasses)), Median(seconds(r.tracedPasses))
	r.layer["trace.overhead_frac"] = ratio(traced, untraced) - 1
	r.detail["untraced_pass_s"] = untraced
	r.detail["traced_pass_s"] = traced
}

// parallel calls fn(worker, i) for every i in [0, n) on Workers goroutines
// and returns when all calls have.
func parallel(n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := range Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(worker, i)
			}
		}()
	}
	wg.Wait()
}

// sameResult compares two results the way the goldens do: as printed.
func sameResult(a, b prisim.Result) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB (10^6
// bytes), or the Go runtime's total reservation where /proc is missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
