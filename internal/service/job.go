package service

import (
	"context"
	"sync"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/prisimclient"
)

// job is the server-side state of one submitted request. The exported view
// (prisimclient.Job) is produced under the job's lock by view().
type job struct {
	id       string
	req      prisimclient.JobRequest
	cacheKey string // content hash of a simulate point or program run; "" for experiments; set before enqueue, immutable after

	// Program jobs only; assembled and analyzed at submit, immutable after,
	// except that the worker takes prog so a settled job holds no image.
	prog      *asm.Program
	imageHash string
	warnings  []prisimclient.Diagnostic // priscan warning findings

	ctx    context.Context        // derived from the server's root context
	cancel context.CancelFunc     // DELETE and drain-deadline both land here
	settle func(prisimclient.Job) // set at submit, immutable after; records the terminal state, called with mu held

	mu         sync.Mutex
	state      prisimclient.JobState // guarded by mu
	errMsg     string                // guarded by mu
	done, tot  int                   // guarded by mu; progress: resolved / requested simulation points
	created    time.Time             // guarded by mu
	started    time.Time             // guarded by mu
	finished   time.Time             // guarded by mu
	result     *prisim.Result        // guarded by mu; simulate and program jobs
	tables     []prisim.Table        // guarded by mu; experiment jobs
	output     []byte                // guarded by mu; program console output
	computedBy string                // guarded by mu; node that produced the result
	changed    chan struct{}         // guarded by mu; closed and replaced when the state or progress changes
	doneCh     chan struct{}         // closed when the job reaches a terminal state
	cancelAsk  bool                  // guarded by mu; DELETE arrived (distinguishes cancel from timeout)
}

func newJob(id string, req prisimclient.JobRequest, parent context.Context, now time.Time) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		id:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   prisimclient.StateQueued,
		created: now,
		changed: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
}

// view snapshots the job for JSON responses.
func (j *job) view() prisimclient.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *job) viewLocked() prisimclient.Job {
	return prisimclient.Job{
		ID:            j.id,
		Request:       j.req,
		State:         j.state,
		Error:         j.errMsg,
		Progress:      prisimclient.Progress{Done: j.done, Total: j.tot},
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		KernelVersion: prisim.Version,
		CacheKey:      j.cacheKey,
		ComputedBy:    j.computedBy,
		Warnings:      j.warnings,
	}
}

// watch returns the job's current state and progress as an untyped event,
// and a channel that closes at the job's next change.
func (j *job) watch() (prisimclient.Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return prisimclient.Event{
		JobID:    j.id,
		State:    j.state,
		Error:    j.errMsg,
		Progress: prisimclient.Progress{Done: j.done, Total: j.tot},
	}, j.changed
}

// changedLocked wakes every stream watching the job. Callers hold j.mu.
func (j *job) changedLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// setProgress updates the run counters.
func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.done, j.tot = done, total
	j.changedLocked()
	j.mu.Unlock()
}

// start moves queued -> running; it fails if the job was cancelled while
// queued.
func (j *job) start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != prisimclient.StateQueued {
		return false
	}
	j.state = prisimclient.StateRunning
	j.started = now
	j.changedLocked()
	return true
}

// finish moves the job to a terminal state exactly once; later calls are
// ignored (e.g. a cancel racing the worker's own completion). The settle
// hook runs before the lock is released, so the terminal state is recorded
// before any reader can see it.
func (j *job) finish(state prisimclient.JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	if j.settle != nil {
		j.settle(j.viewLocked())
	}
	j.changedLocked()
	close(j.doneCh)
	return true
}

// requestCancel is the DELETE path: cancel the context and, if the job is
// still queued, resolve it to cancelled immediately (a worker that later
// pops it will skip it).
func (j *job) requestCancel(now time.Time) {
	j.mu.Lock()
	j.cancelAsk = true
	queued := j.state == prisimclient.StateQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(prisimclient.StateCancelled, "cancelled while queued", now)
	}
}

// cancelRequested reports whether a DELETE arrived for the job.
func (j *job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsk
}

// setPayload stores a job's result, its tables, its console output and the
// node that produced them, before finish publishes the done state.
func (j *job) setPayload(res *prisim.Result, tables []prisim.Table, output []byte, by string) {
	j.mu.Lock()
	j.result, j.tables, j.output, j.computedBy = res, tables, output, by
	j.mu.Unlock()
}

// payload returns the stored result, output, and provenance (valid once
// state == done).
func (j *job) payload() (*prisim.Result, []prisim.Table, []byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.tables, j.output, j.computedBy
}

// stateNow returns the current state.
func (j *job) stateNow() prisimclient.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
