package fabric

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// schedule is the dispatch loop. Each wake it walks the queue once, in
// arrival order, and dispatches every point a healthy worker with a free
// slot can take; the rest stay queued for the next wake. Every point runs
// through a worker's job API — a single-node fabric is a coordinator that
// joins itself — and a retried point prefers a different worker than the
// one that just failed it. Whatever can make a queued point dispatchable
// wakes the loop: a new point, a freed slot, a registered worker, a retry
// coming due, and the tick that ends a quarantine.
func (c *Coordinator) schedule() {
	defer c.wg.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed {
		now := time.Now()
		var rest []*flight
		for _, f := range c.pending {
			var w *worker
			if !now.Before(f.retryAt) {
				w = c.pickWorkerLocked(f)
			}
			if w == nil {
				rest = append(rest, f)
				continue
			}
			w.inflight++
			c.dispatched++
			c.wg.Add(1)
			go c.execOnWorker(w, f)
		}
		c.pending = rest
		c.cond.Wait()
	}
}

// wake starts the scheduler's next pass. It takes c.mu, so a wake can never
// land between a pass and the wait that follows it.
func (c *Coordinator) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// tick periodically wakes the scheduler so quarantined workers get retried
// once their cooldown lapses even when no other event fires.
func (c *Coordinator) tick() {
	defer c.wg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-t.C:
			c.wake()
		}
	}
}

// affinityKey identifies the fast-forward snapshot a point's run clones on
// a worker: benchmark plus fast-forward budget (the axes a worker engine
// keys its warm-state cache by that matrices commonly vary).
func affinityKey(req prisimclient.JobRequest) string {
	return fmt.Sprintf("%s|ff=%d", req.Benchmark, req.FastForward)
}

// pickWorkerLocked selects a worker for f, preferring (a) the worker that
// last ran this point's workload — its engine already holds the warm
// fast-forward snapshot, so the run clones instead of replaying — then
// (b) healthy workers with free slots on a round-robin, avoiding (c) the
// node that just failed the point (the idle-node fan-out rule).
// Quarantined workers become eligible again after workerCooldown. The
// chosen worker is recorded as the workload's new affinity; a pick that
// finds no worker changes nothing.
func (c *Coordinator) pickWorkerLocked(f *flight) *worker {
	n := len(c.workerOrder)
	if n == 0 {
		return nil
	}
	now := time.Now()
	eligible := func(w *worker) bool {
		return w.inflight < c.cfg.WorkerSlots &&
			(w.unhealthyAt.IsZero() || now.Sub(w.unhealthyAt) >= workerCooldown)
	}
	// Workload affinity first: reusing the node that already fast-forwarded
	// this workload turns the run's warm-up into a snapshot clone.
	key := affinityKey(f.req)
	if id, ok := c.affinity[key]; ok {
		if w := c.workers[id]; w != nil && eligible(w) && w.id != f.lastWorker {
			return w
		}
	}
	var pick *worker // the node that last failed f only if no other is eligible
	for i := 0; i < n; i++ {
		w := c.workers[c.workerOrder[(c.rr+i)%n]]
		if !eligible(w) {
			continue
		}
		if w.id != f.lastWorker {
			c.rr = (c.rr + i + 1) % n
			pick = w
			break
		}
		if pick == nil {
			pick = w
		}
	}
	if pick != nil {
		c.affinity[key] = pick.id
	}
	return pick
}

// execOnWorker runs one point on a worker daemon: submit (with 429/503
// retry honoring the server's Retry-After), wait for the terminal state,
// fetch the result. Success lands in the store and resolves every waiting
// matrix; failure re-queues the point with exponential backoff or fails
// its matrices after maxAttempts. Either way the freed slot wakes the
// scheduler.
func (c *Coordinator) execOnWorker(w *worker, f *flight) {
	defer c.wg.Done()
	ctx, cancel := context.WithTimeout(c.rootCtx, pointTimeout)
	defer cancel()
	res, by, err := runPoint(ctx, w.client, f.req)

	c.mu.Lock()
	w.inflight--
	c.cond.Broadcast()
	if err != nil {
		w.failures++
		w.consecFails++
		w.lastErr = err.Error()
		if w.consecFails >= 3 && w.unhealthyAt.IsZero() {
			w.unhealthyAt = time.Now()
			c.logf("worker=%s quarantined after %d consecutive failures: %v", w.id, w.consecFails, err)
		}
		c.pointFailedLocked(f, w.id, err)
		c.mu.Unlock()
		return
	}
	w.completed++
	w.consecFails = 0
	w.lastErr = ""
	if by == "" {
		by = w.id
	}
	c.mu.Unlock()

	c.pointDone(f, res, by)
}

// pointDone persists a computed result and resolves its flight. The store
// append happens outside c.mu (lock order: c.mu is never held across
// store.mu acquisition from exec goroutines).
func (c *Coordinator) pointDone(f *flight, res prisim.Result, by string) {
	if err := c.store.Put(Entry{
		Key:        f.key,
		Kernel:     prisim.Version,
		ComputedBy: by,
		Created:    time.Now(),
		Request:    f.req,
		Result:     res,
	}); err != nil {
		c.logf("point=%.12s store append failed: %v", f.key, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, f.key)
	for i, mr := range f.waiters {
		src := srcJoin
		if i == 0 && mr == f.owner {
			src = srcExec
		}
		c.recordPointLocked(mr, f.key, res, by, src)
	}
}

// pointFailedLocked re-queues a failed point with exponential backoff, or —
// once attempts are exhausted — fails every matrix waiting on it. Callers
// hold c.mu.
func (c *Coordinator) pointFailedLocked(f *flight, workerID string, err error) {
	f.attempts++
	f.lastWorker = workerID
	f.lastErr = err.Error()
	if c.closed {
		return
	}
	if f.attempts >= maxAttempts {
		delete(c.flights, f.key)
		c.logf("point=%.12s failed after %d attempts: %v", f.key, f.attempts, err)
		for _, mr := range f.waiters {
			c.failRunLocked(mr, fmt.Sprintf("point %s/%s (key %.12s...) failed after %d attempts: %v",
				f.req.Benchmark, f.req.Policy, f.key, f.attempts, err))
		}
		return
	}
	backoff := c.cfg.RetryBackoff << (f.attempts - 1)
	if max := 5 * time.Second; backoff > max {
		backoff = max
	}
	c.logf("point=%.12s attempt=%d node=%s error=%v; retrying in %s", f.key, f.attempts, workerID, err, backoff)
	f.retryAt = time.Now().Add(backoff)
	c.pending = append(c.pending, f)
	time.AfterFunc(backoff, c.wake)
}

// runPoint drives one point through a worker's job API: submit, wait,
// fetch. Queue-full backpressure retries with the server's suggested
// delay until the point context expires.
func runPoint(ctx context.Context, client *prisimclient.Client, req prisimclient.JobRequest) (prisim.Result, string, error) {
	var job *prisimclient.Job
	for {
		var err error
		job, err = client.Submit(ctx, req)
		if err == nil {
			break
		}
		var apiErr *prisimclient.APIError
		retryable := errors.Is(err, prisimclient.ErrQueueFull) ||
			(errors.As(err, &apiErr) && apiErr.StatusCode == 503)
		if !retryable {
			return prisim.Result{}, "", fmt.Errorf("submit: %w", err)
		}
		delay := 100 * time.Millisecond
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			delay = apiErr.RetryAfter
		}
		select {
		case <-ctx.Done():
			return prisim.Result{}, "", fmt.Errorf("submit: %w", ctx.Err())
		case <-time.After(delay):
		}
	}
	done, err := client.Wait(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		return prisim.Result{}, "", fmt.Errorf("wait %s: %w", job.ID, err)
	}
	if done.State != prisimclient.StateDone {
		return prisim.Result{}, "", fmt.Errorf("job %s finished %s: %s", job.ID, done.State, done.Error)
	}
	jr, err := client.Result(ctx, job.ID)
	if err != nil {
		return prisim.Result{}, "", fmt.Errorf("result %s: %w", job.ID, err)
	}
	if jr.Result == nil {
		return prisim.Result{}, "", fmt.Errorf("job %s: done without a simulate result", job.ID)
	}
	return *jr.Result, jr.ComputedBy, nil
}
