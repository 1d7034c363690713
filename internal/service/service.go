// Package service implements prisimd: simulation-as-a-service over the
// public prisim Engine. One shared Engine backs every job, so identical
// simulation points submitted by different clients coalesce in the
// harness's singleflight cache; a bounded queue applies backpressure (429 +
// Retry-After) instead of collapsing under load; a worker pool sized to
// GOMAXPROCS executes jobs with per-job timeout, panic isolation, and
// context-propagated cancellation; and every job streams progress over SSE.
// The wire types live in prisim/prisimclient so external clients get a
// fully public API.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// Submission errors surfaced by Submit (the HTTP layer maps them to 429,
// 503, and 409).
var (
	ErrQueueFull = errors.New("job queue full")
	ErrDraining  = errors.New("server is draining")
	// ErrCacheKeyMismatch rejects a simulate request whose client-computed
	// cache key disagrees with the server's — almost always kernel-version
	// skew between the submitting node and this one.
	ErrCacheKeyMismatch = errors.New("cache key mismatch")
)

// ProgramError rejects a program submission whose source failed to
// assemble, or whose static analysis found a provable defect (e.g. a store
// whose every possible address lies outside the program image). The HTTP
// layer maps it to 422 with the structured diagnostics in the body — for a
// static-analysis rejection, the errors and the accompanying warnings — so
// the client sees everything in one round trip. Warning-only findings never
// produce a ProgramError; they ride along on the accepted job instead.
type ProgramError struct {
	Diags []prisimclient.Diagnostic
	msg   string
}

// programError counts n errors in its message; the structured diagnostics
// carry the positions and excerpts, so the message itself stays short.
func programError(what string, n int, diags []prisimclient.Diagnostic) *ProgramError {
	msg := fmt.Sprintf("%s: %d errors", what, n)
	if n == 1 {
		msg = what + ": 1 error"
	}
	return &ProgramError{Diags: diags, msg: msg}
}

func (e *ProgramError) Error() string { return e.msg }

// ProgramLimits is the sandbox for user-submitted program jobs. Zero fields
// select the defaults; the limits bound resources only and never change a
// successful run's outcome, so they are excluded from program cache keys.
type ProgramLimits struct {
	// MaxSourceBytes bounds the assembly source size (default 1MB).
	MaxSourceBytes int
	// MaxRun caps measured instructions per program run (default 50M). A
	// request's Run 0 ("to completion") becomes exactly this cap; an
	// explicit Run above it is rejected at submit rather than clamped, so a
	// request never silently measures less than it asked for.
	MaxRun uint64
	// MaxMemoryBytes caps the simulated machine's resident footprint
	// (default 256MB), checked between instruction chunks.
	MaxMemoryBytes uint64
}

// Default program sandbox limits.
const (
	DefaultMaxProgramSource = 1 << 20   // 1MB of assembly text
	DefaultMaxProgramRun    = 50 << 20  // ~50M instructions
	DefaultMaxProgramMemory = 256 << 20 // 256MB simulated footprint
)

// withDefaults fills zero fields.
func (l ProgramLimits) withDefaults() ProgramLimits {
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = DefaultMaxProgramSource
	}
	if l.MaxRun == 0 {
		l.MaxRun = DefaultMaxProgramRun
	}
	if l.MaxMemoryBytes == 0 {
		l.MaxMemoryBytes = DefaultMaxProgramMemory
	}
	return l
}

// Config sizes a Server. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrent job execution; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting to run; <= 0 selects 4x Workers.
	// Submissions beyond queued+running capacity get 429 + Retry-After.
	QueueDepth int
	// JobTimeout bounds one job's execution (0 = no limit).
	JobTimeout time.Duration
	// Budget is the default per-run measurement budget (zero fields keep
	// the engine defaults); requests may override per job.
	Budget struct{ FastForward, Run uint64 }
	// Logger receives structured request/job logs; nil discards them.
	Logger *log.Logger
	// Engine overrides the server-built engine (tests); normally nil.
	Engine *prisim.Engine

	// Programs is the sandbox for user-submitted program jobs; zero fields
	// take the defaults (see ProgramLimits).
	Programs ProgramLimits

	// NodeID stamps ComputedBy on results this node executes; "" selects
	// "local".
	NodeID string
	// Store, when non-nil, is the durable content-addressed result store:
	// simulate jobs whose point is already recorded resolve from it without
	// touching the engine, and fresh results are appended to it.
	Store *fabric.Store
	// Coordinator, when non-nil, mounts the fabric control plane
	// (/api/v1/fabric/...) on this server's handler.
	Coordinator *fabric.Coordinator
}

// Server owns the job queue, worker pool, job registry, and metrics. Create
// one with New, expose Handler over HTTP, and stop it with Drain or Close.
type Server struct {
	cfg     Config
	engine  *prisim.Engine
	logger  *log.Logger
	metrics *metrics
	nodeID  string
	store   *fabric.Store // nil when the server runs without durability
	coord   *fabric.Coordinator

	rootCtx  context.Context // parent of every job context
	rootStop context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup // workers

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	order    []string        // guarded by mu; insertion order for listing
	nextID   uint64          // guarded by mu
	nextReq  uint64          // guarded by mu
	running  int             // guarded by mu
	draining bool            // guarded by mu
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	cfg.Programs = cfg.Programs.withDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = prisim.NewEngine(
			prisim.WithBudget(cfg.Budget.FastForward, cfg.Budget.Run),
			prisim.WithParallelism(cfg.Workers),
		)
	}
	//lint:ignore ctxcheck the server owns this lifecycle root: every job context derives from it and Close/Drain cancel it
	ctx, stop := context.WithCancel(context.Background())
	nodeID := cfg.NodeID
	if nodeID == "" {
		nodeID = "local"
	}
	s := &Server{
		cfg:      cfg,
		engine:   eng,
		logger:   cfg.Logger,
		metrics:  newMetrics(),
		nodeID:   nodeID,
		store:    cfg.Store,
		coord:    cfg.Coordinator,
		rootCtx:  ctx,
		rootStop: stop,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Engine exposes the shared engine (tests compare service results against
// direct calls on the very same cache).
func (s *Server) Engine() *prisim.Engine { return s.engine }

// logf writes one structured log line if a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Submit validates req, registers a job, and enqueues it. It returns
// ErrQueueFull when the queue is at capacity and ErrDraining after Drain or
// Close began.
func (s *Server) Submit(req prisimclient.JobRequest) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Validate names up front so a bad request fails at submit, not inside
	// a worker.
	var checked *checkedProgram
	var err error
	switch req.Kind {
	case prisimclient.KindSimulate:
		err = req.Options().Validate()
	case prisimclient.KindProgram:
		checked, err = s.assembleRequest(&req)
	case prisimclient.KindExperiment:
		if !slices.Contains(prisim.ExperimentNames(), req.Experiment) {
			err = fmt.Errorf("unknown experiment %q", req.Experiment)
		}
	}
	if err != nil {
		return nil, err
	}

	// Content-address the point: resolve the effective budget (request, then
	// server config, then the universal defaults inside CacheKeyFor) and hash
	// it. A client-supplied key must agree — a mismatch means the client
	// hashed different inputs than this node will simulate, almost always
	// kernel-version skew, and trusting it would poison every store keyed on
	// the hash.
	var cacheKey, imageHash string
	eff := req
	switch req.Kind {
	case prisimclient.KindSimulate:
		if eff.FastForward == 0 {
			eff.FastForward = s.cfg.Budget.FastForward
		}
		if eff.Run == 0 {
			eff.Run = s.cfg.Budget.Run
		}
		cacheKey = prisimclient.CacheKeyFor(prisim.Version, eff)
	case prisimclient.KindProgram:
		// Programs key on the assembled image's content hash, not the
		// source text, with the budget resolved to what will actually run
		// (Run 0 = the sandbox instruction cap).
		imageHash = checked.prog.SHA256()
		if eff.Run == 0 {
			eff.Run = s.cfg.Programs.MaxRun
		}
		cacheKey = prisimclient.CacheKeyForProgram(prisim.Version, imageHash, eff)
	}
	if req.CacheKey != "" && cacheKey != "" && req.CacheKey != cacheKey {
		return nil, fmt.Errorf("%w: client sent %.12s..., server (kernel %s) computes %.12s...",
			ErrCacheKeyMismatch, req.CacheKey, prisim.Version, cacheKey)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := newJob(id, req, s.rootCtx, time.Now())
	j.settle = s.settle
	j.cacheKey = cacheKey
	j.imageHash = imageHash
	if checked != nil {
		j.prog = checked.prog
		j.warnings = checked.warnings
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.cancel()
		s.metrics.incRejected()
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.metrics.incSubmitted()
	s.logf("job=%s state=queued kind=%s bench=%q experiment=%q", id, req.Kind, req.Benchmark, req.Experiment)
	return j, nil
}

// checkedProgram is a program submission that survived assembly and the
// priscan static analysis: the image plus the warning-severity findings
// and the inlinability summary, all computed once at submit time.
type checkedProgram struct {
	prog         *asm.Program
	warnings     []prisimclient.Diagnostic
	inlinability prisimclient.Inlinability
}

// assembleRequest enforces the program sandbox's submit-time limits,
// assembles the source, and runs the priscan analyzers over the image,
// recording the outcomes in the program metrics. An assembly failure or an
// analysis finding of error severity returns *ProgramError, so the HTTP
// layer can answer 422 with every positioned diagnostic; no engine run is
// ever dispatched for either.
// Warning findings never reject: they come back on the checkedProgram.
func (s *Server) assembleRequest(req *prisimclient.JobRequest) (*checkedProgram, error) {
	lim := s.cfg.Programs
	if len(req.Source) > lim.MaxSourceBytes {
		return nil, fmt.Errorf("program source is %d bytes; limit %d", len(req.Source), lim.MaxSourceBytes)
	}
	if req.Run > lim.MaxRun {
		return nil, fmt.Errorf("program run budget %d exceeds the server cap %d", req.Run, lim.MaxRun)
	}
	if err := req.Options().Validate(); err != nil {
		return nil, err
	}
	prog, err := asm.AssembleFile("program.s", string(req.Source))
	if err != nil {
		s.metrics.incProgramAssemblyError()
		diags := asm.Diagnostics(err)
		return nil, programError("program failed to assemble", len(diags), diags)
	}
	s.metrics.incProgramAssembled()

	rep := analysis.Analyze(prog, analysis.Options{})
	diags := rep.Diagnostics(prog, "program.s", string(req.Source))
	nerrors := 0
	for _, d := range diags {
		if d.Severity == analysis.SevError.String() {
			nerrors++
		}
	}
	if nerrors > 0 {
		s.metrics.incProgramLintRejected()
		return nil, programError("program rejected by static analysis", nerrors, diags)
	}
	s.metrics.addProgramLintWarnings(len(diags))
	return &checkedProgram{
		prog:         prog,
		warnings:     diags,
		inlinability: rep.Inlinability,
	}, nil
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// listJobs snapshots every tracked job, oldest first.
func (s *Server) listJobs() []prisimclient.Job {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]prisimclient.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// worker pulls jobs until the queue closes (Drain) or the root context dies
// (Close).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and finishes it. The job leaves the running
// count before it is finished, so a client that sees it finished never
// finds it still counted as running.
func (s *Server) runJob(j *job) {
	// Take the image now so no settled job, whatever its outcome, holds one.
	prog := j.prog
	j.prog = nil
	if j.ctx.Err() != nil || !j.start(time.Now()) {
		// Cancelled while queued (requestCancel already resolved it), or
		// the server is shutting down hard.
		j.finish(prisimclient.StateCancelled, "cancelled while queued", time.Now())
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	state, errMsg := s.execute(j, prog)
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	j.finish(state, errMsg, time.Now())
}

// execute runs a started job and returns the terminal state it reached,
// with panic isolation: a panicking simulation fails the job, not the
// process.
func (s *Server) execute(j *job, prog *asm.Program) (state prisimclient.JobState, errMsg string) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.incPanics()
			s.logf("job=%s panic=%v\n%s", j.id, p, debug.Stack())
			state, errMsg = prisimclient.StateFailed, fmt.Sprintf("internal error: panic: %v", p)
		}
	}()

	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	eng := s.engine.ProgressView(j.setProgress)

	var err error
	switch j.req.Kind {
	case prisimclient.KindSimulate:
		err = s.resolve(j, func() (prisim.ProgramResult, error) {
			res, err := eng.Simulate(ctx, j.req.Options())
			return prisim.ProgramResult{Result: res}, err
		})
	case prisimclient.KindExperiment:
		var tables []prisim.Table
		tables, err = eng.ExperimentTables(ctx, j.req.Experiment, j.req.Options())
		if err == nil {
			j.setPayload(nil, tables, nil, "")
		}
	case prisimclient.KindProgram:
		opts := j.req.Options()
		if opts.Run == 0 {
			opts.Run = s.cfg.Programs.MaxRun
		}
		opts.MemLimit = s.cfg.Programs.MaxMemoryBytes
		err = s.resolve(j, func() (prisim.ProgramResult, error) {
			pres, err := s.engine.SimulateProgram(ctx, prisim.NewProgram(prog), opts)
			if err == nil {
				j.setProgress(1, 1)
			}
			return pres, err
		})
	default:
		err = fmt.Errorf("unknown job kind %q", j.req.Kind)
	}

	switch {
	case err == nil:
		return prisimclient.StateDone, ""
	case errors.Is(err, context.DeadlineExceeded):
		return prisimclient.StateFailed, fmt.Sprintf("job exceeded timeout %s", s.cfg.JobTimeout)
	case errors.Is(err, context.Canceled):
		if !j.cancelRequested() {
			return prisimclient.StateCancelled, "cancelled by server shutdown"
		}
		return prisimclient.StateCancelled, "cancelled"
	default:
		return prisimclient.StateFailed, err.Error()
	}
}

// resolve produces a keyed job's result, the one store path for simulate
// and program jobs. A point warm in the durable store is served without
// touching the engine: the result is a pure function of the hashed inputs,
// so the original producer's ComputedBy stamp carries over. Otherwise run
// computes it on this node and the fresh result is appended to the store.
func (s *Server) resolve(j *job, run func() (prisim.ProgramResult, error)) error {
	started := time.Now()
	if s.store != nil {
		if e, ok := s.store.Get(j.cacheKey); ok {
			res := e.Result
			j.setPayload(&res, nil, e.Output, e.ComputedBy)
			j.setProgress(1, 1)
			s.metrics.incStoreHit()
			return nil
		}
	}
	pres, err := run()
	if err != nil {
		return err
	}
	j.setPayload(&pres.Result, nil, pres.Output, s.nodeID)
	s.metrics.observeSimulate(pres.Committed, time.Since(started))
	if s.store != nil {
		if perr := s.store.Put(fabric.Entry{
			Key: j.cacheKey, Kernel: prisim.Version, ComputedBy: s.nodeID,
			Created: time.Now(), Request: j.req, Result: pres.Result, Output: pres.Output,
		}); perr != nil {
			s.logf("job=%s store append failed: %v", j.id, perr)
		}
	}
	return nil
}

// settle records a finished job's terminal-state metrics and log line. The
// job calls it once, as it finishes, before the terminal state is visible.
func (s *Server) settle(v prisimclient.Job) {
	s.metrics.observeTerminal(v.State, v.Finished.Sub(v.Created))
	s.logf("job=%s state=%s latency=%s error=%q", v.ID, v.State, v.Finished.Sub(v.Created).Round(time.Millisecond), v.Error)
}

// Draining reports whether Drain/Close has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain idempotently stops intake and closes the queue so workers exit
// once it empties.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
}

// Drain gracefully shuts the worker pool down: new submissions are refused,
// queued and running jobs keep executing, and when ctx expires every
// remaining job's context is cancelled (jobs observe it between instruction
// chunks and resolve as cancelled). Drain returns once all workers exited;
// the error reports whether the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll("cancelled by drain deadline")
		<-done
		return fmt.Errorf("drain deadline reached: in-flight jobs were cancelled: %w", ctx.Err())
	}
}

// Close shuts down immediately: intake stops and every live job is
// cancelled. It blocks until the workers exit.
func (s *Server) Close() {
	s.beginDrain()
	s.cancelAll("cancelled by server shutdown")
	s.rootStop()
	s.wg.Wait()
}

// cancelAll cancels every non-terminal job's context.
func (s *Server) cancelAll(reason string) {
	s.mu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		if !j.stateNow().Terminal() {
			s.logf("job=%s %s", j.id, reason)
			j.cancel()
		}
	}
}
