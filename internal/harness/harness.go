// Package harness drives the experiments that regenerate every table and
// figure in the paper's evaluation (Tables 1-2, Figures 1-2 and 8-12), plus
// five ablations. Experiments lists them in canonical order; each returns
// stats.Tables whose rows mirror the series the paper plots.
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The run matrix behind those tables — 27 workloads x 8 release policies x
// 2 machine widths x a register-count axis — is embarrassingly parallel, so
// a Runner executes timing runs on a bounded worker pool: every figure
// driver hands its whole matrix to one sweep, the pool simulates points
// concurrently, and the driver formats rows serially from the returned
// grid, so tables are byte-identical to a single-worker run while wall-clock
// scales with cores. Concurrent requests for the same point are deduplicated
// singleflight-style (each point simulates exactly once per Runner), and
// every run observes context cancellation between instruction chunks.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/ooo"
	"prisim/internal/stats"
	"prisim/internal/workloads"
)

// Budget bounds one measurement run, mirroring the paper's fast-forward +
// measure methodology (scaled down from 400M+100M to simulator-friendly
// sizes; override with cmd/priexp flags).
type Budget struct {
	FastForward uint64
	Run         uint64
}

// The paper-methodology per-run budget defaults, re-exported by package
// prisim as part of its content-hash schema.
const (
	DefaultFastForward = 20_000
	DefaultRun         = 80_000
)

// DefaultBudget is used by the experiment drivers unless overridden.
var DefaultBudget = Budget{FastForward: DefaultFastForward, Run: DefaultRun}

// orDefault fills zero fields from DefaultBudget.
func (b Budget) orDefault() Budget {
	if b.FastForward == 0 {
		b.FastForward = DefaultBudget.FastForward
	}
	if b.Run == 0 {
		b.Run = DefaultBudget.Run
	}
	return b
}

// Result summarizes one timing run.
type Result struct {
	Benchmark string
	Machine   string // machine configuration name ("4wide" / "8wide")
	IntPRs    int    // integer physical register file size simulated
	FPPRs     int    // floating-point physical register file size simulated

	IPC       float64
	Cycles    uint64
	Committed uint64

	IntOccupancy float64 // mean allocated integer physical registers
	FPOccupancy  float64

	// Register lifetime phases (cycles, averaged per released register of
	// the benchmark's dominant class).
	AllocToWrite, WriteToRead, ReadToRelease float64

	InlineFraction float64 // source operands served from inlined map entries
	MispredictRate float64
	BranchResolved uint64
	DL1MissRate    float64
	L2MissRate     float64
	Replays        uint64 // scheduler latency mis-speculation replays

	// PRI activity counters for the benchmark's dominant register class
	// (zero under non-PRI policies).
	InlinedResults uint64
	WAWSuppressed  uint64
	DeferredFrees  uint64
	EarlyFrees     uint64
}

// runKey identifies one timing run: the workload, the whole machine, and
// the budget — everything the run's outcome depends on.
type runKey struct {
	bench  string
	cfg    ooo.Config
	budget Budget
}

// shared is the Runner state common to every budget view: the run and
// snapshot caches, the worker pool, and the cache counters. Budget-scoped
// views created with WithBudget alias it, so deduplication spans all of them.
type shared struct {
	sem chan struct{} // bounded worker pool

	mu        sync.Mutex
	runs      flightTable[runKey, *Result]
	completed int // guarded by mu
	hits      int // guarded by mu; requests served by an already-completed run
	coalesced int // guarded by mu; requests that joined another caller's in-flight run

	// Fast-forward snapshot cache (see snapshot.go).
	snaps      flightTable[snapKey, *snapshot]
	snapsOff   bool   // guarded by mu
	snapClock  uint64 // guarded by mu; LRU clock
	snapBuilds int    // guarded by mu; fast-forwards executed to fill the cache
	snapHits   int    // guarded by mu; runs constructed from a cached snapshot
	snapBytes  uint64 // guarded by mu; resident bytes of cached warm states
}

// CacheStats is a snapshot of the memoization counters, spanning every
// budget and progress view of one shared cache.
type CacheStats struct {
	Executed  int // simulations actually performed
	Hits      int // requests answered instantly from a completed cache entry
	Coalesced int // requests that waited on another caller's in-flight run

	// Fast-forward snapshot cache counters.
	SnapshotBuilds int    // functional fast-forwards executed to fill the snapshot cache
	SnapshotHits   int    // runs constructed from a cached warm state instead of replaying
	SnapshotBytes  uint64 // resident bytes of cached warm states
}

// viewState is the per-view progress accounting behind ProgressView: done
// counts the view's requests that have resolved (by its own flight, by
// joining another flight, or — for requests made before the point was
// cached — never; completed-entry hits resolve instantly and are not
// counted), submitted counts requests that found no completed entry.
type viewState struct {
	mu        sync.Mutex
	hook      func(done, total int) // guarded by mu
	done      int                   // guarded by mu
	submitted int                   // guarded by mu
}

// Runner executes timing runs on a bounded worker pool and memoizes them;
// the same (benchmark, machine) point is shared by several figures, and
// concurrent requests for one point collapse into a single simulation.
// A Runner is safe for use from multiple goroutines.
type Runner struct {
	Budget Budget
	s      *shared
	view   *viewState // nil unless created by ProgressView
}

// NewParallelRunner returns a Runner whose pool admits at most workers
// concurrent simulations; workers <= 0 selects GOMAXPROCS. workers == 1
// reproduces the serial execution order exactly.
func NewParallelRunner(b Budget, workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &shared{sem: make(chan struct{}, workers)}
	s.runs = flightTable[runKey, *Result]{
		mu:      &s.mu,
		flights: make(map[runKey]*flight[*Result]),
		hit:     s.runHitLocked,
		join:    s.runJoinLocked,
		landed:  s.runLandedLocked,
	}
	s.snaps = flightTable[snapKey, *snapshot]{
		mu:      &s.mu,
		flights: make(map[snapKey]*flight[*snapshot]),
		hit:     s.snapHitLocked,
		join:    func() {}, // a joined build counts as a hit once it lands
		landed:  s.snapLandedLocked,
	}
	return &Runner{Budget: b.orDefault(), s: s}
}

// The run cache's books: Hits counts only instant answers from a completed
// run, Coalesced counts joins, and Executed counts landed runs.

func (s *shared) runHitLocked(_ *Result, waited bool) {
	if !waited {
		s.hits++
	}
}

func (s *shared) runJoinLocked() { s.coalesced++ }

func (s *shared) runLandedLocked(*Result, bool) { s.completed++ }

// WithBudget returns a view of the Runner that simulates at budget b (zero
// fields fall back to the receiver's budget) while sharing the receiver's
// cache, worker pool, and progress view. The budget is part of the cache
// key, so views never alias each other's results.
func (r *Runner) WithBudget(b Budget) *Runner {
	if b.FastForward == 0 {
		b.FastForward = r.Budget.FastForward
	}
	if b.Run == 0 {
		b.Run = r.Budget.Run
	}
	return &Runner{Budget: b, s: r.s, view: r.view}
}

// ProgressView returns a view of the Runner that reports per-view progress
// to fn while sharing the receiver's cache and worker pool. fn is called
// after each of the view's requests resolves, with the number resolved and
// the number submitted by this view so far; requests answered instantly
// from a completed cache entry do not fire it. Calls are serialized; fn
// must be fast and must not call back into the Runner. The view survives
// WithBudget, so one view can track a whole experiment.
func (r *Runner) ProgressView(fn func(done, total int)) *Runner {
	return &Runner{Budget: r.Budget, s: r.s, view: &viewState{hook: fn}}
}

// CacheStats reports the memoization counters accumulated across every view
// of this Runner's shared cache.
func (r *Runner) CacheStats() CacheStats {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return CacheStats{
		Executed:       r.s.completed,
		Hits:           r.s.hits,
		Coalesced:      r.s.coalesced,
		SnapshotBuilds: r.s.snapBuilds,
		SnapshotHits:   r.s.snapHits,
		SnapshotBytes:  r.s.snapBytes,
	}
}

// viewSubmit records one not-instantly-resolvable request against the view,
// at most once per RunCtx call.
func (r *Runner) viewSubmit(counted *bool) {
	if r.view == nil || *counted {
		return
	}
	*counted = true
	r.view.mu.Lock()
	r.view.submitted++
	r.view.mu.Unlock()
}

// viewDone marks one of the view's requests resolved and fires the hook.
// The hook runs under the view lock so reported (done, total) pairs are
// monotonic.
func (r *Runner) viewDone() {
	if r.view == nil {
		return
	}
	r.view.mu.Lock()
	r.view.done++
	if r.view.hook != nil {
		r.view.hook(r.view.done, r.view.submitted)
	}
	r.view.mu.Unlock()
}

// RunCtx simulates one benchmark on one machine configuration, memoized and
// deduplicated: concurrent calls for the same point block on one simulation
// and share its result. The run is bounded by the worker pool and aborts
// between instruction chunks when ctx is cancelled; a cancelled or panicked
// flight is evicted so later calls retry it.
func (r *Runner) RunCtx(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	counted := false // view accounting: at most one submit per call
	res, err := r.s.runs.do(ctx, runKey{w.Name, cfg, r.Budget},
		func() { r.viewSubmit(&counted) },
		func() (*Result, error) { return r.simulate(ctx, w, cfg) })
	if err != nil {
		return nil, err
	}
	if counted {
		r.viewDone()
	}
	return res, nil
}

// ctxChunk is how many instructions execute between context checks.
const ctxChunk = 16 * 1024

// simulate performs one timing run inside a worker-pool slot. The workload's
// fast-forward state comes from the snapshot cache when available — one
// functional fast-forward per workload serves the whole sweep — and is
// replayed inline otherwise; results are byte-identical either way.
// warmFor runs before the slot is acquired: a caller waiting on another
// flight's snapshot build must not occupy a worker.
func (r *Runner) simulate(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	warm, err := r.warmFor(ctx, w, cfg)
	if err != nil {
		return nil, err
	}

	select {
	case r.s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.s.sem }()

	var p *ooo.Pipeline
	if warm != nil {
		p = ooo.NewFromWarm(cfg, warm)
	} else {
		p = ooo.New(cfg, w.Build(0))
		if err := runChunked(ctx, p.FastForward, r.Budget.FastForward); err != nil {
			return nil, err
		}
	}
	if err := runChunked(ctx, p.Run, r.Budget.Run); err != nil {
		return nil, err
	}
	return buildResult(p, cfg, w.Name, w.Class == workloads.FP), nil
}

// runChunked drives a resumable budgeted phase (FastForward or Run) in
// slices, checking ctx between slices so long runs cancel promptly. It
// accounts the instructions each slice actually retired — the commit stage
// can overshoot a slice quota by up to width-1 — so the run stops at the
// same cycle boundary a single phase(n) call would. A slice that falls
// short of its quota means the program halted, abandoning the rest.
func runChunked(ctx context.Context, phase func(uint64) uint64, n uint64) error {
	return runChunkedCheck(ctx, phase, n, nil)
}

// runChunkedCheck is runChunked with an optional between-chunk check (the
// program-sandbox memory cap); a non-nil error from check aborts the run.
func runChunkedCheck(ctx context.Context, phase func(uint64) uint64, n uint64, check func() error) error {
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		c := uint64(ctxChunk)
		if n < c {
			c = n
		}
		got := phase(c)
		if got < c || got >= n {
			break
		}
		n -= got
	}
	if check != nil {
		return check()
	}
	return nil
}

// buildResult snapshots a pipeline that finished running bench on cfg into a
// Result, reporting the lifetime and PRI counters of the fp or integer
// register class.
func buildResult(p *ooo.Pipeline, cfg ooo.Config, bench string, fp bool) *Result {
	st := p.Stats()
	life := p.Renamer().IntStats()
	if fp {
		life = p.Renamer().FPStats()
	}
	aw, wr, rr := life.AvgPhases()
	return &Result{
		Benchmark:      bench,
		Machine:        cfg.Name,
		IntPRs:         cfg.Rename.IntPRs,
		FPPRs:          cfg.Rename.FPPRs,
		IPC:            st.IPC(),
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IntOccupancy:   st.AvgIntOccupancy(),
		FPOccupancy:    st.AvgFPOccupancy(),
		AllocToWrite:   aw,
		WriteToRead:    wr,
		ReadToRelease:  rr,
		InlineFraction: st.InlineFraction(),
		MispredictRate: st.MispredictRate(),
		BranchResolved: st.BranchResolved,
		DL1MissRate:    p.Mem().DL1.MissRate(),
		L2MissRate:     p.Mem().L2.MissRate(),
		Replays:        st.Replays,
		InlinedResults: life.InlinedResults,
		WAWSuppressed:  life.WAWSuppressed,
		DeferredFrees:  life.DeferredFrees,
		EarlyFrees:     life.EarlyFrees,
	}
}

// ErrMemLimit aborts a program run whose simulated machine footprint
// exceeded the caller's memory cap (see RunProgram's memLimit).
var ErrMemLimit = errors.New("simulated memory limit exceeded")

// RunProgram runs an arbitrary assembled program through the timing
// pipeline, uncached (the caller owns the program, so there is no key to
// memoize under). The budget is used verbatim — FastForward 0 skips nothing
// and Run bounds committed instructions, stopping early if the program
// halts. It honours ctx between instruction chunks, optionally streams an
// O3PipeView trace to pipeview, and returns the run's Result (with an empty
// Benchmark) alongside the program's console output. memLimit > 0 caps the
// simulated machine's resident footprint (checked between chunks, so a run
// can overshoot by at most one chunk's worth of page touches); exceeding it
// fails the run with an error wrapping ErrMemLimit.
func RunProgram(ctx context.Context, cfg ooo.Config, prog *asm.Program, fp bool, b Budget, memLimit uint64, pipeview io.Writer) (*Result, []byte, error) {
	p := ooo.New(cfg, prog)
	if pipeview != nil {
		p.SetPipeView(pipeview)
	}
	var check func() error
	if memLimit > 0 {
		check = func() error {
			if fb := p.Machine().FootprintBytes(); fb > memLimit {
				return fmt.Errorf("%w: footprint %d bytes > limit %d", ErrMemLimit, fb, memLimit)
			}
			return nil
		}
	}
	if err := runChunkedCheck(ctx, p.FastForward, b.FastForward, check); err != nil {
		return nil, nil, err
	}
	if err := runChunkedCheck(ctx, p.Run, b.Run, check); err != nil {
		return nil, nil, err
	}
	if pipeview != nil {
		p.FlushPipeView()
	}
	return buildResult(p, cfg, "", fp), p.Machine().Output(), nil
}

// firstError keeps the first error reported by a set of goroutines.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// sweep simulates every workload at every config on the worker pool and
// returns the results as a grid indexed [workload][config]; duplicate
// points collapse via the singleflight cache. Points are submitted
// workload-major: every point of one workload shares a fast-forward
// snapshot, so adjacent submission lets the first point's build serve its
// siblings the moment it completes. Drivers format rows serially from the
// grid, so tables are identical whatever the pool's scheduling.
func (r *Runner) sweep(ctx context.Context, ws []workloads.Workload, cfgs ...ooo.Config) ([][]*Result, error) {
	grid := make([][]*Result, len(ws))
	var wg sync.WaitGroup
	var fe firstError
	for i, w := range ws {
		grid[i] = make([]*Result, len(cfgs))
		for j, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := r.RunCtx(ctx, w, cfg)
				if err != nil {
					fe.set(err)
					return
				}
				grid[i][j] = res
			}()
		}
	}
	wg.Wait()
	if fe.err != nil {
		return nil, fe.err
	}
	return grid, nil
}

// forEach runs fn(i) for i in [0, n) concurrently, bounded by the worker
// pool, and returns the first error. It backs the functional-emulation
// experiments that bypass the timing-run cache.
func (r *Runner) forEach(ctx context.Context, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var fe firstError
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case r.s.sem <- struct{}{}:
			case <-ctx.Done():
				fe.set(ctx.Err())
				return
			}
			defer func() { <-r.s.sem }()
			if err := fn(i); err != nil {
				fe.set(err)
			}
		}()
	}
	wg.Wait()
	return fe.err
}

// machine returns the Table 1 configuration for a width.
func machine(width int) ooo.Config {
	if width == 8 {
		return ooo.Width8()
	}
	return ooo.Width4()
}

// suite returns the workloads of one class.
func suite(c workloads.Class) []workloads.Workload {
	if c == workloads.FP {
		return workloads.FloatingPoint()
	}
	return workloads.Integer()
}

// mean is the arithmetic mean the paper uses for its averages.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Experiment is one regenerable table or figure of the paper's evaluation,
// or one ablation beyond it.
type Experiment struct {
	Name string
	// Tables runs the experiment's sweeps on r and renders its tables.
	Tables func(r *Runner, ctx context.Context) ([]stats.Table, error)
}

// Experiments lists every experiment in canonical order: the order the
// public API names them and WriteReport renders them.
var Experiments = []Experiment{
	{"table1", (*Runner).Table1},
	{"table2", (*Runner).Table2},
	{"fig1", (*Runner).Fig1},
	{"fig2", (*Runner).Fig2},
	{"fig8", (*Runner).Fig8},
	{"fig9", (*Runner).Fig9},
	{"fig10", (*Runner).Fig10},
	{"fig11", (*Runner).Fig11},
	{"fig12", (*Runner).Fig12},
	{"ablation-inline", (*Runner).AblationRenameInline},
	{"ablation-mem", (*Runner).AblationDisambiguation},
	{"ablation-delayed", (*Runner).AblationDelayedAllocation},
	{"ablation-mshr", (*Runner).AblationMSHR},
	{"ablation-prefetch", (*Runner).AblationPrefetch},
}

// bothWidths renders a per-width table on the 4-wide machine, then on the
// 8-wide one; each table comes from its own sweep.
func bothWidths(table func(width int) (stats.Table, error)) ([]stats.Table, error) {
	t4, err := table(4)
	if err != nil {
		return nil, err
	}
	t8, err := table(8)
	if err != nil {
		return nil, err
	}
	return []stats.Table{t4, t8}, nil
}

// Table1 renders the machine configurations (static; the paper's Table 1).
func (*Runner) Table1(context.Context) ([]stats.Table, error) {
	t := stats.Table{
		Title:   "Table 1: machine configurations",
		Columns: []string{"parameter", "4-wide", "8-wide"},
	}
	c4, c8 := ooo.Width4(), ooo.Width8()
	row := func(name string, v4, v8 any) { t.AddRow(name, fmt.Sprint(v4), fmt.Sprint(v8)) }
	row("fetch/issue/commit width", c4.Width, c8.Width)
	row("ROB entries", c4.ROBSize, c8.ROBSize)
	row("LSQ entries", c4.LSQSize, c8.LSQSize)
	row("scheduler entries", c4.SchedSize, c8.SchedSize)
	row("int physical registers", c4.Rename.IntPRs, c8.Rename.IntPRs)
	row("fp physical registers", c4.Rename.FPPRs, c8.Rename.FPPRs)
	row("PRI narrow bits (int)", c4.Rename.IntNarrowBits, c8.Rename.IntNarrowBits)
	row("PRI fp inlining", "all-zero/all-one patterns", "all-zero/all-one patterns")
	row("branch predictor", "bimodal4k/gshare4k + selector4k", "same")
	row("RAS / BTB", "16 / 1k 4-way", "same")
	row("IL1", "32KB 2-way 32B, 2cyc", "same")
	row("DL1", "32KB 4-way 16B, 2cyc", "same")
	row("L2", "512KB 4-way 64B, 12cyc", "same")
	row("memory latency", c4.Mem.MemLatency, c8.Mem.MemLatency)
	row("select-to-execute depth", c4.SchedToExec, c8.SchedToExec)
	return []stats.Table{t}, nil
}

// Table2 reproduces the paper's Table 2: baseline IPC for every benchmark
// on both machine widths.
func (r *Runner) Table2(ctx context.Context) ([]stats.Table, error) {
	ws := workloads.All()
	grid, err := r.sweep(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   "Table 2: benchmark programs and baseline IPC",
		Columns: []string{"bench", "class", "IPC(4w)", "paper(4w)", "IPC(8w)", "paper(8w)"},
	}
	for i, w := range ws {
		r4, r8 := grid[i][0], grid[i][1]
		t.AddRow(w.Name, w.Class.String(),
			stats.F(r4.IPC, 2), stats.F(w.PaperIPC4, 2),
			stats.F(r8.IPC, 2), stats.F(w.PaperIPC8, 2))
	}
	return []stats.Table{t}, nil
}

// Fig1 reproduces Figure 1: average register lifetime split into the three
// phases, per integer benchmark, on the baseline 4- and 8-wide machines.
func (r *Runner) Fig1(ctx context.Context) ([]stats.Table, error) {
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title: "Figure 1: average register lifetime (cycles) split by phase, baseline",
		Columns: []string{"bench",
			"alloc->wr(4w)", "wr->rd(4w)", "rd->rel(4w)", "total(4w)",
			"alloc->wr(8w)", "wr->rd(8w)", "rd->rel(8w)", "total(8w)"},
	}
	for i, w := range ws {
		r4, r8 := grid[i][0], grid[i][1]
		t.AddRow(w.Name,
			stats.F(r4.AllocToWrite, 1), stats.F(r4.WriteToRead, 1), stats.F(r4.ReadToRelease, 1),
			stats.F(r4.AllocToWrite+r4.WriteToRead+r4.ReadToRelease, 1),
			stats.F(r8.AllocToWrite, 1), stats.F(r8.WriteToRead, 1), stats.F(r8.ReadToRelease, 1),
			stats.F(r8.AllocToWrite+r8.WriteToRead+r8.ReadToRelease, 1))
	}
	return []stats.Table{t}, nil
}

// Fig2 reproduces Figure 2: the cumulative distribution of operand
// significance — integer operand widths, then FP exponent/significand
// widths — measured over the functional instruction stream. The
// per-benchmark analyses are independent, so they fan out over the worker
// pool.
func (r *Runner) Fig2(ctx context.Context) ([]stats.Table, error) {
	analyze := func(ws []workloads.Workload) ([]*stats.Significance, error) {
		sigs := make([]*stats.Significance, len(ws))
		err := r.forEach(ctx, len(ws), func(i int) error {
			m := emu.New(ws[i].Build(0))
			m.Run(r.Budget.FastForward)
			sigs[i] = stats.Analyze(m, r.Budget.Run)
			return nil
		})
		return sigs, err
	}

	intT := stats.Table{
		Title:   "Figure 2 (top): cumulative % of integer operands representable in N bits",
		Columns: []string{"bench", "<=4", "<=7", "<=8", "<=10", "<=12", "<=16", "<=24", "<=32", "<=48", "<=64"},
	}
	widths := []int{4, 7, 8, 10, 12, 16, 24, 32, 48, 64}
	intWs := suite(workloads.Int)
	intSigs, err := analyze(intWs)
	if err != nil {
		return nil, err
	}
	for i, w := range intWs {
		row := []string{w.Name}
		for _, n := range widths {
			row = append(row, stats.Pct(intSigs[i].IntFracWithin(n)))
		}
		intT.AddRow(row...)
	}

	fpT := stats.Table{
		Title:   "Figure 2 (bottom): FP operand field significance",
		Columns: []string{"bench", "trivial(all 0/1)", "exp<=1b", "exp<=4b", "exp<=8b", "sig=0b", "sig<=16b", "sig<=32b"},
	}
	fpWs := suite(workloads.FP)
	fpSigs, err := analyze(fpWs)
	if err != nil {
		return nil, err
	}
	for i, w := range fpWs {
		s := fpSigs[i]
		fpT.AddRow(w.Name,
			stats.Pct(s.FPTrivialFrac()),
			stats.Pct(s.ExpBits.CumulativeFrac(1)),
			stats.Pct(s.ExpBits.CumulativeFrac(4)),
			stats.Pct(s.ExpBits.CumulativeFrac(8)),
			stats.Pct(s.SigBits.CumulativeFrac(0)),
			stats.Pct(s.SigBits.CumulativeFrac(16)),
			stats.Pct(s.SigBits.CumulativeFrac(32)))
	}
	return []stats.Table{intT, fpT}, nil
}

// Fig8 reproduces Figure 8: lifetime reduction under PRI and PRI+ER versus
// the baseline, integer benchmarks, both widths.
func (r *Runner) Fig8(ctx context.Context) ([]stats.Table, error) {
	var cfgs []ooo.Config
	for _, width := range []int{4, 8} {
		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
	}
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title: "Figure 8: avg register lifetime (cycles): base vs PRI(rc+ckpt) vs PRI+ER",
		Columns: []string{"bench",
			"base(4w)", "pri(4w)", "pri+er(4w)",
			"base(8w)", "pri(8w)", "pri+er(8w)"},
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, res := range grid[i] {
			row = append(row, stats.F(res.AllocToWrite+res.WriteToRead+res.ReadToRelease, 1))
		}
		t.AddRow(row...)
	}
	return []stats.Table{t}, nil
}

// Fig9PRs is the physical register sweep of Figure 9; its first entry (40)
// is the point every row is normalized to.
var Fig9PRs = []int{40, 48, 56, 64, 72, 80, 96}

// Fig9 reproduces Figure 9: baseline speedup versus register file size,
// normalized to 40 registers, for every benchmark at each width.
func (r *Runner) Fig9(ctx context.Context) ([]stats.Table, error) {
	return bothWidths(func(width int) (stats.Table, error) {
		cols := []string{"bench"}
		var cfgs []ooo.Config
		for _, n := range Fig9PRs {
			cols = append(cols, fmt.Sprintf("PR=%d", n))
			cfgs = append(cfgs, machine(width).WithPRs(n))
		}
		ws := workloads.All()
		grid, err := r.sweep(ctx, ws, cfgs...)
		if err != nil {
			return stats.Table{}, err
		}
		t := stats.Table{
			Title:   fmt.Sprintf("Figure 9: register file sensitivity, %d-wide (speedup vs PR=40)", width),
			Columns: cols,
		}
		for i, w := range ws {
			base := grid[i][0]
			row := []string{w.Name}
			for _, res := range grid[i] {
				row = append(row, stats.F(res.IPC/base.IPC, 2))
			}
			t.AddRow(row...)
		}
		return t, nil
	})
}

// speedupTable renders Figures 10 and 12: per-benchmark IPC speedup of each
// scheme over the baseline, plus the arithmetic mean row.
func (r *Runner) speedupTable(ctx context.Context, class workloads.Class, width int, title string) (stats.Table, error) {
	cfgs := []ooo.Config{machine(width).WithPolicy(core.PolicyBase)}
	for _, pol := range core.AllPolicies {
		cfgs = append(cfgs, machine(width).WithPolicy(pol))
	}
	ws := suite(class)
	grid, err := r.sweep(ctx, ws, cfgs...)
	if err != nil {
		return stats.Table{}, err
	}
	t := stats.Table{
		Title: title,
		Columns: []string{"bench", "ER",
			"PRI-rc-ckpt", "PRI-rc-lazy", "PRI-ideal-ckpt", "PRI-ideal-lazy",
			"PRI+ER", "InfPR"},
	}
	sums := make([][]float64, len(core.AllPolicies))
	for i, w := range ws {
		base := grid[i][0]
		row := []string{w.Name}
		for k, res := range grid[i][1:] {
			sp := res.IPC / base.IPC
			sums[k] = append(sums[k], sp)
			row = append(row, stats.F(sp, 3))
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for i := range core.AllPolicies {
		avg = append(avg, stats.F(mean(sums[i]), 3))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig10 reproduces Figure 10: integer speedups for all seven schemes at
// each width.
func (r *Runner) Fig10(ctx context.Context) ([]stats.Table, error) {
	return bothWidths(func(width int) (stats.Table, error) {
		return r.speedupTable(ctx, workloads.Int, width,
			fmt.Sprintf("Figure 10: PRI speedup, integer benchmarks, %d-wide (IPC / base IPC)", width))
	})
}

// Fig12 reproduces Figure 12: floating-point speedups for all seven schemes
// at each width.
func (r *Runner) Fig12(ctx context.Context) ([]stats.Table, error) {
	return bothWidths(func(width int) (stats.Table, error) {
		return r.speedupTable(ctx, workloads.FP, width,
			fmt.Sprintf("Figure 12: PRI speedup, floating point benchmarks, %d-wide (IPC / base IPC)", width))
	})
}

// Fig11 reproduces Figure 11: average physical register file occupancy for
// base, ER, PRI, and PRI+ER on the integer benchmarks at each width.
func (r *Runner) Fig11(ctx context.Context) ([]stats.Table, error) {
	return bothWidths(func(width int) (stats.Table, error) {
		var cfgs []ooo.Config
		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
		ws := suite(workloads.Int)
		grid, err := r.sweep(ctx, ws, cfgs...)
		if err != nil {
			return stats.Table{}, err
		}
		t := stats.Table{
			Title:   fmt.Sprintf("Figure 11: avg integer PRF occupancy, %d-wide", width),
			Columns: []string{"bench", "base", "ER", "PRI", "PRI+ER"},
		}
		for i, w := range ws {
			row := []string{w.Name}
			for _, res := range grid[i] {
				row = append(row, stats.F(res.IntOccupancy, 1))
			}
			t.AddRow(row...)
		}
		return t, nil
	})
}

// AblationRenameInline compares PRI with and without the Section 6
// future-work extension (rename-time inlining of narrow load-immediates) on
// the 4-wide machine.
func (r *Runner) AblationRenameInline(ctx context.Context) ([]stats.Table, error) {
	cfg := machine(4).WithPolicy(core.PolicyPRIRcCkpt)
	extCfg := cfg
	extCfg.InlineAtRename = true
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, cfg, extCfg)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   "Ablation: rename-time inlining extension, 4-wide",
		Columns: []string{"bench", "PRI IPC", "PRI+renameInline IPC", "gain"},
	}
	for i, w := range ws {
		basePRI, ext := grid[i][0], grid[i][1]
		t.AddRow(w.Name, stats.F(basePRI.IPC, 3), stats.F(ext.IPC, 3),
			stats.F(ext.IPC/basePRI.IPC, 3))
	}
	return []stats.Table{t}, nil
}

// AblationDelayedAllocation explores the paper's Section 6 virtual-physical
// direction on the 4-wide machine: baseline vs delayed register allocation
// vs delayed allocation combined with PRI.
func (r *Runner) AblationDelayedAllocation(ctx context.Context) ([]stats.Table, error) {
	// A 40-register file keeps the writeback gate engaged so the
	// PRI interaction is visible (at 64 registers the gate rarely binds).
	const prs = 40
	cfgB := machine(4).WithPRs(prs)
	cfgD := cfgB
	cfgD.DelayedAllocation = true
	cfgDP := cfgD.WithPolicy(core.PolicyPRIRcLazy)
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, cfgB, cfgD, cfgDP)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   fmt.Sprintf("Ablation: virtual-physical delayed allocation, 4-wide, %d PRs", prs),
		Columns: []string{"bench", "base IPC", "delayed IPC", "delayed+PRI IPC"},
	}
	for i, w := range ws {
		base, delayed, both := grid[i][0], grid[i][1], grid[i][2]
		t.AddRow(w.Name, stats.F(base.IPC, 3), stats.F(delayed.IPC, 3), stats.F(both.IPC, 3))
	}
	return []stats.Table{t}, nil
}

// AblationMSHR bounds memory-level parallelism on the 4-wide machine: the
// default model overlaps misses without limit (as sim-outorder does); this
// table shows how much of the memory-bound benchmarks' throughput that
// assumption is worth.
func (r *Runner) AblationMSHR(ctx context.Context) ([]stats.Table, error) {
	cfg8 := machine(4)
	cfg8.Mem.MSHRs = 8
	cfg2 := machine(4)
	cfg2.Mem.MSHRs = 2
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, machine(4), cfg8, cfg2)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   "Ablation: MSHR-bounded miss overlap, 4-wide baseline",
		Columns: []string{"bench", "unlimited IPC", "8 MSHRs", "2 MSHRs"},
	}
	for i, w := range ws {
		unlimited, m8, m2 := grid[i][0], grid[i][1], grid[i][2]
		t.AddRow(w.Name, stats.F(unlimited.IPC, 3), stats.F(m8.IPC, 3), stats.F(m2.IPC, 3))
	}
	return []stats.Table{t}, nil
}

// AblationPrefetch adds an idealized next-line data prefetcher to the
// 4-wide baseline: it shows how much of the streaming benchmarks' miss cost
// the Table 1 machine (which has none) leaves on the table.
func (r *Runner) AblationPrefetch(ctx context.Context) ([]stats.Table, error) {
	pfCfg := machine(4)
	pfCfg.Mem.NextLinePrefetch = true
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, machine(4), pfCfg)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   "Ablation: next-line data prefetch, 4-wide baseline",
		Columns: []string{"bench", "no-prefetch IPC", "prefetch IPC", "gain"},
	}
	for i, w := range ws {
		base, pf := grid[i][0], grid[i][1]
		t.AddRow(w.Name, stats.F(base.IPC, 3), stats.F(pf.IPC, 3), stats.F(pf.IPC/base.IPC, 3))
	}
	return []stats.Table{t}, nil
}

// AblationDisambiguation compares oracle and conservative memory
// disambiguation on the 4-wide baseline machine (a documented model choice).
func (r *Runner) AblationDisambiguation(ctx context.Context) ([]stats.Table, error) {
	consCfg := machine(4)
	consCfg.ConservativeDisambiguation = true
	consCfg.Name = consCfg.Name + "-consv"
	ws := suite(workloads.Int)
	grid, err := r.sweep(ctx, ws, machine(4), consCfg)
	if err != nil {
		return nil, err
	}
	t := stats.Table{
		Title:   "Ablation: memory disambiguation, 4-wide baseline",
		Columns: []string{"bench", "oracle IPC", "conservative IPC", "ratio"},
	}
	for i, w := range ws {
		oracle, cons := grid[i][0], grid[i][1]
		t.AddRow(w.Name, stats.F(oracle.IPC, 3), stats.F(cons.IPC, 3),
			stats.F(cons.IPC/oracle.IPC, 3))
	}
	return []stats.Table{t}, nil
}
