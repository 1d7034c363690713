// Package fabric is the distributed experiment fabric: a coordinator that
// expands experiment matrices into content-addressed simulation points,
// serves warm points at memory speed from a durable append-only result
// store, and shards cold points across a registered pool of worker prisimd
// daemons (reusing prisimclient as the worker transport) with idle-node
// fan-out and retry-with-backoff on worker failure.
//
// Everything hangs off the determinism guarantee prilint enforces: a
// simulation is a pure function of (kernel version, workload, policy,
// params), so a result keyed by the SHA-256 of those inputs is valid
// forever, coalesces duplicate work across nodes and restarts, and lets a
// fabric-computed table be byte-identical to a single-node Engine run.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// Errors surfaced by coordinator methods (the HTTP layer maps them).
var (
	ErrNoSuchMatrix    = errors.New("no such matrix")
	ErrMatrixNotDone   = errors.New("matrix is not done")
	ErrVersionSkew     = errors.New("worker kernel version skew")
	ErrTooManyPoints   = errors.New("matrix exceeds the point limit")
	ErrNoSuchWorker    = errors.New("no such worker")
	errCoordinatorDown = errors.New("coordinator is shut down")
)

// Limits on the coordinator's work.
const (
	maxAttempts  = 4               // dispatches of one point before the matrices waiting on it fail
	pointTimeout = 5 * time.Minute // one dispatch: submit + wait + fetch
	maxPoints    = 4096            // points in one matrix's expansion
)

// Config sizes a Coordinator. Store is required; the zero value of every
// other field selects a sane default.
type Config struct {
	// Store is the durable content-addressed result store (required). The
	// coordinator replays its matrix records at startup and resumes any
	// that never finished.
	Store *Store
	// WorkerSlots bounds concurrent points dispatched to one worker;
	// <= 0 selects 4 (half a default worker's queue depth, so dispatch
	// backpressure stays rare).
	WorkerSlots int
	// RetryBackoff is the base delay before a failed point re-enters the
	// queue (doubled per attempt, capped at 5s); <= 0 selects 200ms.
	RetryBackoff time.Duration
	// Logger receives coordinator logs; nil discards them.
	Logger *log.Logger
}

// worker is one registered prisimd daemon. All fields are mutated only
// under the coordinator's mu.
type worker struct {
	id         string
	url        string
	client     *prisimclient.Client
	version    string
	registered time.Time

	inflight    int
	completed   uint64
	failures    uint64
	consecFails int
	lastErr     string
	unhealthyAt time.Time // non-zero while quarantined
}

// flight is one cold point being computed (or queued to be). Duplicate
// requests for the key — from other matrices, other clients, other nodes —
// subscribe as waiters instead of spawning another run. All fields are
// mutated only under the coordinator's mu.
type flight struct {
	key     string
	req     prisimclient.JobRequest
	owner   *matrixRun // the matrix whose submission created the flight
	waiters []*matrixRun

	attempts   int
	lastWorker string
	lastErr    string
	retryAt    time.Time // a failed point waits on the queue until then
}

// matrixRun is the in-memory lifecycle of one submitted matrix. All fields
// are mutated only under the coordinator's mu.
type matrixRun struct {
	id      string
	spec    prisimclient.Matrix // normalized
	reqs    []prisimclient.JobRequest
	created time.Time

	state      prisimclient.JobState
	errMsg     string
	finished   time.Time
	results    map[string]prisim.Result
	computedBy map[string]string
	doneCount  int
	hits       int
	executed   int
	coalesced  int
	tables     []prisim.Table
	doneCh     chan struct{}
}

// Coordinator owns the worker registry, the matrix registry, the per-point
// flight table, and the dispatch queue. Create one with New and stop it
// with Close. A Coordinator is safe for concurrent use.
type Coordinator struct {
	cfg   Config
	store *Store

	rootCtx  context.Context
	rootStop context.CancelFunc
	wg       sync.WaitGroup

	mu           sync.Mutex
	cond         *sync.Cond // paired with mu; pending/capacity changes
	workers      map[string]*worker
	workerOrder  []string
	nextWorkerID uint64
	rr           int               // round-robin start for worker picking
	affinity     map[string]string // guarded by mu; workload affinity: snapshot key -> last worker id
	flights      map[string]*flight
	pending      []*flight // the dispatch queue, in arrival order: every point waiting for a worker
	matrices     map[string]*matrixRun
	matrixOrder  []string
	dispatched   uint64 // total worker dispatches since creation
	closed       bool
}

// New builds a Coordinator over cfg.Store, replays the store's matrix
// records (resuming any unfinished matrix), and starts the dispatch loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fabric: Config.Store is required")
	}
	if cfg.WorkerSlots <= 0 {
		cfg.WorkerSlots = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	//lint:ignore ctxcheck the coordinator owns this lifecycle root: every dispatch context derives from it and Close cancels it
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:      cfg,
		store:    cfg.Store,
		rootCtx:  ctx,
		rootStop: stop,
		workers:  make(map[string]*worker),
		affinity: make(map[string]string),
		flights:  make(map[string]*flight),
		matrices: make(map[string]*matrixRun),
	}
	c.cond = sync.NewCond(&c.mu)

	// Resume: every recorded matrix re-attaches to the store. Finished ones
	// complete instantly from warm results; unfinished ones re-enter the
	// queue with only their missing points cold.
	c.mu.Lock()
	for _, rec := range c.store.Matrices() {
		mr, err := c.buildRunLocked(rec.Spec, rec.Created)
		if err != nil {
			c.mu.Unlock()
			stop()
			return nil, fmt.Errorf("fabric: replaying matrix %s: %w", rec.ID, err)
		}
		if mr.id != rec.ID {
			c.logf("matrix=%s replay: spec now hashes to %s (kernel %s); resubmitting under the new identity", rec.ID, mr.id, prisim.Version)
		}
		c.attachLocked(mr)
	}
	c.mu.Unlock()

	c.wg.Add(2)
	go c.schedule()
	go c.tick()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// Close stops the dispatch loop and abandons in-flight dispatches. Durable
// state is already on disk: reopening a coordinator over the same store
// resumes every unfinished matrix.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.rootStop()
	c.cond.Broadcast()
	c.wg.Wait()
}

// Dispatched reports how many point dispatches went to workers since
// creation (the zero-dispatch warm-path assertions hang off this).
func (c *Coordinator) Dispatched() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dispatched
}

// --- Matrix lifecycle ---

// SubmitMatrix validates and registers a matrix, serving warm points from
// the store immediately and queueing cold ones. Matrix identity is
// content-derived: an identical spec returns the existing matrix (created
// reports false) without recomputing anything.
func (c *Coordinator) SubmitMatrix(spec prisimclient.Matrix) (st prisimclient.MatrixStatus, created bool, err error) {
	if err := ValidateMatrix(spec); err != nil {
		return prisimclient.MatrixStatus{}, false, err
	}
	spec = NormalizeMatrix(spec)
	points := len(spec.Benchmarks) * len(spec.Policies) * len(spec.Widths) * len(spec.PhysRegs)
	if points > maxPoints {
		return prisimclient.MatrixStatus{}, false, fmt.Errorf("%w: %d > %d", ErrTooManyPoints, points, maxPoints)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return prisimclient.MatrixStatus{}, false, errCoordinatorDown
	}
	id := MatrixID(prisim.Version, spec)
	if mr, ok := c.matrices[id]; ok {
		return c.statusLocked(mr), false, nil
	}
	now := time.Now()
	// Durability first: the submission record hits the log before any point
	// dispatches, so a crash at any later moment can resume the matrix.
	if err := c.store.PutMatrix(id, spec, now); err != nil {
		return prisimclient.MatrixStatus{}, false, err
	}
	mr, err := c.buildRunLocked(spec, now)
	if err != nil {
		return prisimclient.MatrixStatus{}, false, err
	}
	c.attachLocked(mr)
	c.logf("matrix=%s points=%d hits=%d cold=%d", mr.id, len(mr.reqs), mr.hits, len(mr.reqs)-mr.doneCount)
	return c.statusLocked(mr), true, nil
}

// buildRunLocked constructs the in-memory run for a normalized spec.
func (c *Coordinator) buildRunLocked(spec prisimclient.Matrix, created time.Time) (*matrixRun, error) {
	spec = NormalizeMatrix(spec)
	if err := ValidateMatrix(spec); err != nil {
		return nil, err
	}
	return &matrixRun{
		id:         MatrixID(prisim.Version, spec),
		spec:       spec,
		reqs:       Expand(prisim.Version, spec),
		created:    created,
		state:      prisimclient.StateRunning,
		results:    make(map[string]prisim.Result),
		computedBy: make(map[string]string),
		doneCh:     make(chan struct{}),
	}, nil
}

// attachLocked registers the run and resolves each of its points: store
// hit, join of an existing flight, or a fresh flight on the queue.
func (c *Coordinator) attachLocked(mr *matrixRun) {
	c.matrices[mr.id] = mr
	c.matrixOrder = append(c.matrixOrder, mr.id)
	for _, req := range mr.reqs {
		key := req.CacheKey
		if e, ok := c.store.Get(key); ok {
			c.recordPointLocked(mr, key, e.Result, e.ComputedBy, srcStore)
			continue
		}
		if f, ok := c.flights[key]; ok {
			f.waiters = append(f.waiters, mr)
			mr.coalesced++
			continue
		}
		f := &flight{key: key, req: req, owner: mr, waiters: []*matrixRun{mr}}
		c.flights[key] = f
		c.pending = append(c.pending, f)
	}
	// An all-warm matrix already completed inside the last recordPointLocked.
	c.cond.Broadcast()
}

// pointSource says how a point reached a matrix.
type pointSource int

const (
	srcStore pointSource = iota // warm in the durable store
	srcExec                     // computed by a flight this matrix owns
	srcJoin                     // computed by a flight another matrix owns
)

// recordPointLocked folds one resolved point into a run and completes the
// run when it was the last.
func (c *Coordinator) recordPointLocked(mr *matrixRun, key string, res prisim.Result, by string, src pointSource) {
	if mr.state.Terminal() {
		return
	}
	if _, ok := mr.results[key]; ok {
		return
	}
	mr.results[key] = res
	mr.computedBy[key] = by
	mr.doneCount++
	switch src {
	case srcStore:
		mr.hits++
	case srcExec:
		mr.executed++
	case srcJoin:
		// Counted in coalesced at attach time.
	}
	if mr.doneCount == len(mr.reqs) {
		c.finishRunLocked(mr)
	}
}

// finishRunLocked assembles the run's tables and marks it done — durably,
// so a restart replays it as completed.
func (c *Coordinator) finishRunLocked(mr *matrixRun) {
	tables, err := AssembleTables(prisim.Version, mr.spec, func(key string) (prisim.Result, bool) {
		r, ok := mr.results[key]
		return r, ok
	})
	if err != nil {
		c.failRunLocked(mr, fmt.Sprintf("assembling tables: %v", err))
		return
	}
	mr.tables = tables
	mr.state = prisimclient.StateDone
	mr.finished = time.Now()
	close(mr.doneCh)
	if err := c.store.MarkMatrixDone(mr.id); err != nil {
		c.logf("matrix=%s done-marker append failed: %v", mr.id, err)
	}
	c.logf("matrix=%s state=done hits=%d executed=%d coalesced=%d latency=%s",
		mr.id, mr.hits, mr.executed, mr.coalesced, mr.finished.Sub(mr.created).Round(time.Millisecond))
}

// failRunLocked resolves a run as failed.
func (c *Coordinator) failRunLocked(mr *matrixRun, msg string) {
	if mr.state.Terminal() {
		return
	}
	mr.state = prisimclient.StateFailed
	mr.errMsg = msg
	mr.finished = time.Now()
	close(mr.doneCh)
	c.logf("matrix=%s state=failed error=%q", mr.id, msg)
}

// statusLocked snapshots a run as its wire status.
func (c *Coordinator) statusLocked(mr *matrixRun) prisimclient.MatrixStatus {
	return prisimclient.MatrixStatus{
		ID:            mr.id,
		Spec:          mr.spec,
		State:         mr.state,
		Error:         mr.errMsg,
		Points:        len(mr.reqs),
		Done:          mr.doneCount,
		StoreHits:     mr.hits,
		Executed:      mr.executed,
		Coalesced:     mr.coalesced,
		KernelVersion: prisim.Version,
		Created:       mr.created,
		Finished:      mr.finished,
	}
}

// MatrixStatus fetches one matrix's status.
func (c *Coordinator) MatrixStatus(id string) (prisimclient.MatrixStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mr, ok := c.matrices[id]
	if !ok {
		return prisimclient.MatrixStatus{}, fmt.Errorf("%w: %s", ErrNoSuchMatrix, id)
	}
	return c.statusLocked(mr), nil
}

// Matrices lists every tracked matrix's status, oldest first.
func (c *Coordinator) Matrices() []prisimclient.MatrixStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]prisimclient.MatrixStatus, 0, len(c.matrixOrder))
	for _, id := range c.matrixOrder {
		out = append(out, c.statusLocked(c.matrices[id]))
	}
	return out
}

// MatrixResult returns a finished matrix's tables and per-point results.
// It fails with ErrMatrixNotDone while points are outstanding and with the
// run's error once failed.
func (c *Coordinator) MatrixResult(id string) (prisimclient.MatrixResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mr, ok := c.matrices[id]
	if !ok {
		return prisimclient.MatrixResult{}, fmt.Errorf("%w: %s", ErrNoSuchMatrix, id)
	}
	switch mr.state {
	case prisimclient.StateDone:
	case prisimclient.StateFailed:
		return prisimclient.MatrixResult{}, fmt.Errorf("matrix failed: %s", mr.errMsg)
	default:
		return prisimclient.MatrixResult{}, fmt.Errorf("%w: %d/%d points resolved", ErrMatrixNotDone, mr.doneCount, len(mr.reqs))
	}
	res := prisimclient.MatrixResult{ID: mr.id, KernelVersion: prisim.Version, Tables: mr.tables}
	for _, req := range mr.reqs {
		res.Points = append(res.Points, prisimclient.PointResult{
			CacheKey:   req.CacheKey,
			Request:    req,
			Result:     mr.results[req.CacheKey],
			ComputedBy: mr.computedBy[req.CacheKey],
		})
	}
	return res, nil
}

// WaitMatrix blocks until the matrix reaches a terminal state and returns
// its final status.
func (c *Coordinator) WaitMatrix(ctx context.Context, id string) (prisimclient.MatrixStatus, error) {
	c.mu.Lock()
	mr, ok := c.matrices[id]
	if !ok {
		c.mu.Unlock()
		return prisimclient.MatrixStatus{}, fmt.Errorf("%w: %s", ErrNoSuchMatrix, id)
	}
	ch := mr.doneCh
	c.mu.Unlock()
	select {
	case <-ch:
		return c.MatrixStatus(id)
	case <-ctx.Done():
		return prisimclient.MatrixStatus{}, ctx.Err()
	}
}

// --- Worker registry ---

// workerCooldown is how long an unhealthy worker sits out before the
// scheduler tries it again.
const workerCooldown = 15 * time.Second

// RegisterWorker probes the daemon at url, refuses kernel-version skew
// (its results would hash under different keys than this coordinator
// computes), and adds it to the pool. Re-registering a known URL refreshes
// it and clears any unhealthy quarantine.
func (c *Coordinator) RegisterWorker(ctx context.Context, url string) (prisimclient.WorkerInfo, error) {
	url = strings.TrimRight(url, "/")
	client := prisimclient.NewClient(url)
	ver, err := client.Version(ctx)
	if err != nil {
		return prisimclient.WorkerInfo{}, fmt.Errorf("worker %s unreachable: %w", url, err)
	}
	if ver != prisim.Version {
		return prisimclient.WorkerInfo{}, fmt.Errorf("%w: worker %s runs %s, coordinator runs %s", ErrVersionSkew, url, ver, prisim.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return prisimclient.WorkerInfo{}, errCoordinatorDown
	}
	for _, w := range c.workers {
		if w.url == url {
			w.version = ver
			w.consecFails = 0
			w.unhealthyAt = time.Time{}
			w.lastErr = ""
			c.cond.Broadcast()
			c.logf("worker=%s re-registered url=%s version=%s", w.id, url, ver)
			return c.workerInfoLocked(w), nil
		}
	}
	c.nextWorkerID++
	w := &worker{
		id:         fmt.Sprintf("w%d", c.nextWorkerID),
		url:        url,
		client:     client,
		version:    ver,
		registered: time.Now(),
	}
	c.workers[w.id] = w
	c.workerOrder = append(c.workerOrder, w.id)
	c.cond.Broadcast()
	c.logf("worker=%s registered url=%s version=%s", w.id, url, ver)
	return c.workerInfoLocked(w), nil
}

// DeregisterWorker removes a worker from the pool. In-flight dispatches to
// it finish (or fail and re-queue) on their own.
func (c *Coordinator) DeregisterWorker(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchWorker, id)
	}
	delete(c.workers, id)
	for i, wid := range c.workerOrder {
		if wid == id {
			c.workerOrder = append(c.workerOrder[:i], c.workerOrder[i+1:]...)
			break
		}
	}
	c.logf("worker=%s deregistered", id)
	return nil
}

// Workers lists the pool.
func (c *Coordinator) Workers() []prisimclient.WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]prisimclient.WorkerInfo, 0, len(c.workerOrder))
	for _, id := range c.workerOrder {
		out = append(out, c.workerInfoLocked(c.workers[id]))
	}
	return out
}

func (c *Coordinator) workerInfoLocked(w *worker) prisimclient.WorkerInfo {
	return prisimclient.WorkerInfo{
		ID:         w.id,
		URL:        w.url,
		Version:    w.version,
		Healthy:    w.unhealthyAt.IsZero(),
		InFlight:   w.inflight,
		Completed:  w.completed,
		Failures:   w.failures,
		Registered: w.registered,
		LastError:  w.lastErr,
	}
}
