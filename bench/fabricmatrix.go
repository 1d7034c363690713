package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/internal/harness"
	"prisim/internal/service"
	"prisim/internal/workloads"
	"prisim/prisimclient"
)

// fabricPolicies are the matrix's policy columns.
var fabricPolicies = []string{"base", "er", "pri-rc-ckpt", "pri+er"}

// fabricWarmResubmits is how often each pass resubmits its matrix warm.
// One takes a few milliseconds, so forty per pass cost little next to the
// cold matrix and keep one slow moment of the host from setting the median.
const fabricWarmResubmits = 40

// fabricPoll is how often the client polls a matrix's status.
const fabricPoll = 10 * time.Millisecond

// fabricChecksPerPass is how many of a pass's points are re-checked
// against a direct Engine.Simulate.
const fabricChecksPerPass = 4

// fabricStack is the fabric-matrix system under test: a coordinator
// mounted on a service handler and two single-worker daemons.
type fabricStack struct {
	store      *fabric.Store
	storePath  string
	coord      *fabric.Coordinator
	front      *daemon
	workers    []*daemon
	client     *prisimclient.Client
	transports []*http.Transport
}

func (s *fabricStack) stop() {
	s.coord.Close()
	s.front.stop()
	for _, w := range s.workers {
		w.stop()
	}
	s.store.Close()
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

// runFabricMatrix submits, per pass, a cold matrix — the 13 integer
// workloads × four policies × both widths at a register-file size unique
// to the pass, 104 points — waits for it, fetches its result, and then
// resubmits it warm fabricWarmResubmits times, which must dispatch
// nothing. A cold request is the cold matrix round trip, a warm request
// one warm round trip, an op one cold point.
func runFabricMatrix(ctx context.Context, r *run) error {
	b := harness.DefaultBudget
	if r.cfg.Tiny {
		b = paperTiny
	}
	st, err := setup(r, func() (*fabricStack, error) { return startFabric(ctx, r.cfg.WorkDir, b) }, (*fabricStack).stop)
	if err != nil {
		return err
	}
	stop := sync.OnceFunc(st.stop)
	defer stop()

	var benches []string
	for _, w := range workloads.Integer() {
		benches = append(benches, w.Name)
	}
	// Register files of 100 or more barely limit these workloads, so every
	// pass's matrix costs about the same whichever size it draws.
	regs := rngFor(r.cfg.Seed, "fabric-regs").Perm(156)
	var checkPts []simPoint
	var checkRes []prisim.Result
	var lastPts []simPoint
	var lastRes []prisim.Result
	var lastSpec prisimclient.Matrix
	var dispatches []float64
	warmDispatches := uint64(0)
	err = r.loop(ctx, 1, func(_, i int, tr *Tracer) error {
		spec := prisimclient.Matrix{Benchmarks: benches, Policies: fabricPolicies, Widths: []int{4, 8},
			PhysRegs: []int{100 + regs[i%len(regs)]}, FastForward: b.FastForward, Run: b.Run}
		d0 := st.coord.Dispatched()
		r.attempt(1)
		start := time.Now()
		status, res, err := roundTrip(ctx, st.client, spec, tr, "matrix.cold")
		if err != nil {
			r.fail("cold matrix %v: %v", spec.PhysRegs, err)
			return nil
		}
		r.cold = append(r.cold, time.Since(start))
		r.ops += status.Points
		r.check(status.Executed == status.Points, "cold matrix executed %d of %d points", status.Executed, status.Points)
		dispatches = append(dispatches, float64(st.coord.Dispatched()-d0))

		d1 := st.coord.Dispatched()
		for range fabricWarmResubmits {
			r.attempt(1)
			start := time.Now()
			_, warm, err := roundTrip(ctx, st.client, spec, tr, "matrix.warm")
			if err != nil {
				r.fail("warm matrix %v: %v", spec.PhysRegs, err)
				continue
			}
			r.warm = append(r.warm, time.Since(start))
			r.check(reflect.DeepEqual(warm.Tables, res.Tables), "warm resubmission of matrix %s changed its tables", status.ID)
		}
		warmDispatches += st.coord.Dispatched() - d1
		r.check(st.coord.Dispatched() == d1, "warm resubmissions of matrix %s dispatched %d points", status.ID, st.coord.Dispatched()-d1)

		pts := make([]simPoint, len(res.Points))
		results := make([]prisim.Result, len(res.Points))
		for j, p := range res.Points {
			pts[j] = simPoint{Bench: p.Request.Benchmark, Width: p.Request.Width, Policy: prisim.Policy(p.Request.Policy),
				PhysRegs: p.Request.PhysRegs, FF: p.Request.FastForward, Run: p.Request.Run}
			results[j] = p.Result
		}
		for _, j := range sample(rngFor(r.cfg.Seed, "fabric-check", i), len(pts), fabricChecksPerPass) {
			checkPts, checkRes = append(checkPts, pts[j]), append(checkRes, results[j])
		}
		lastPts, lastRes, lastSpec = pts, results, spec
		return nil
	})
	if err != nil {
		return err
	}
	for _, w := range st.workers {
		r.engines = append(r.engines, w.srv.Engine().CacheStats())
	}
	var workerJobs [][]prisimclient.Job
	for _, w := range st.workers {
		c, t := newClient(w.url)
		jobs, err := c.Jobs(ctx)
		t.CloseIdleConnections()
		if err != nil {
			return err
		}
		workerJobs = append(workerJobs, jobs)
	}
	retries := uint64(0)
	for _, w := range st.coord.Workers() {
		retries += w.Failures
	}
	stop()

	eng := prisim.NewEngine(prisim.WithParallelism(Workers))
	got := make([]prisim.Result, len(checkPts))
	errs := make([]error, len(checkPts))
	parallel(len(checkPts), func(_, i int) { got[i], errs[i] = eng.Simulate(ctx, checkPts[i].options()) })
	for i := range checkPts {
		r.check(errs[i] == nil && sameResult(got[i], checkRes[i]), "matrix point %+v differs from a direct Simulate: %s", checkPts[i], diffNote(got[i], errs[i]))
	}
	if !r.cfg.Trace {
		return ctx.Err()
	}

	r.extra["fabric.dispatches"] = Value{Median(dispatches), "count"}
	r.extra["fabric.warm_dispatches"] = Value{float64(warmDispatches), "count"}
	r.extra["fabric.retries"] = Value{float64(retries), "count"}
	busy, wait := workerLoad(workerJobs, r.loopFrom, r.loopTo, r.tr)
	r.extra["fabric.worker_busy_frac"] = Value{busy, "ratio"}
	r.extra["fabric.worker_queue_wait_ms"] = Value{wait, "ms"}
	if len(lastPts) > 0 {
		byKey := map[string]prisim.Result{}
		for i, p := range lastPts {
			byKey[prisimclient.CacheKeyFor(prisim.Version, p.request())] = lastRes[i]
		}
		var lat []time.Duration
		for range 5 {
			start := time.Now()
			_, err := fabric.AssembleTables(prisim.Version, lastSpec, func(key string) (prisim.Result, bool) {
				res, ok := byKey[key]
				return res, ok
			})
			lat = append(lat, time.Since(start))
			r.check(err == nil, "assembling the tables of matrix %v: %v", lastSpec.PhysRegs, err)
		}
		r.extra["fabric.assemble_tables_ms"] = Value{Median(millis(lat)), "ms"}
	}
	r.layer["trace.coverage"] = r.loopCoverage()
	r.probeAnalysis(suitePrograms(benches))
	return r.layerSimulation(ctx, lastPts, lastRes, st.storePath, false)
}

// startFabric builds the coordinator, its front daemon and two worker
// daemons on loopback, and registers the workers through the client.
func startFabric(ctx context.Context, workDir string, b harness.Budget) (*fabricStack, error) {
	dir, err := os.MkdirTemp(workDir, "fabric-")
	if err != nil {
		return nil, err
	}
	s := &fabricStack{storePath: filepath.Join(dir, "store.jsonl")}
	if s.store, err = fabric.OpenStore(s.storePath); err != nil {
		return nil, err
	}
	if s.coord, err = fabric.New(fabric.Config{Store: s.store}); err != nil {
		s.store.Close()
		return nil, err
	}
	// The front daemon only mounts the coordinator; its own job worker
	// stays idle because the benchmark sends it matrices alone.
	if s.front, err = startDaemon(service.Config{Workers: 1, Coordinator: s.coord}); err != nil {
		s.coord.Close()
		s.store.Close()
		return nil, err
	}
	for i := range Workers {
		cfg := service.Config{Workers: 1, NodeID: fmt.Sprintf("worker%d", i+1)}
		cfg.Budget.FastForward, cfg.Budget.Run = b.FastForward, b.Run
		w, err := startDaemon(cfg)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	c, t := newClient(s.front.url)
	s.client, s.transports = c, []*http.Transport{t}
	for _, w := range s.workers {
		if _, err := s.client.RegisterWorker(ctx, w.url); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// roundTrip submits a matrix, waits for it and fetches its result, each
// call in a span under one request span.
func roundTrip(ctx context.Context, c *prisimclient.Client, spec prisimclient.Matrix, tr *Tracer, name string) (*prisimclient.MatrixStatus, *prisimclient.MatrixResult, error) {
	sp := tr.Begin(name, -1, 0)
	defer tr.End(sp)
	var st *prisimclient.MatrixStatus
	var res *prisimclient.MatrixResult
	var err error
	tr.Do("prisimclient.SubmitMatrix", sp, 0, func() { st, err = c.SubmitMatrix(ctx, spec) })
	if err != nil {
		return nil, nil, err
	}
	tr.Do("prisimclient.WaitMatrix", sp, 0, func() { st, err = c.WaitMatrix(ctx, st.ID, fabricPoll) })
	if err != nil {
		return nil, nil, err
	}
	if st.State != prisimclient.StateDone {
		return nil, nil, fmt.Errorf("matrix %s ended %s: %s", st.ID, st.State, st.Error)
	}
	tr.Do("prisimclient.MatrixResult", sp, 0, func() { res, err = c.MatrixResult(ctx, st.ID) })
	return st, res, err
}

// workerLoad derives, from the workers' job listings, the share of the
// traced window each worker spent executing jobs (averaged over workers)
// and the median time a job queued on a worker.
func workerLoad(jobs [][]prisimclient.Job, from, to int64, tr *Tracer) (busy, waitMs float64) {
	lo, hi := tr.epoch.Add(time.Duration(from)), tr.epoch.Add(time.Duration(to))
	var waits []time.Duration
	for _, js := range jobs {
		var exec time.Duration
		for _, j := range js {
			if j.Started.Before(lo) || !j.Started.Before(hi) {
				continue
			}
			end := j.Finished
			if end.After(hi) {
				end = hi
			}
			exec += end.Sub(j.Started)
			waits = append(waits, j.Started.Sub(j.Created))
		}
		busy += exec.Seconds() / hi.Sub(lo).Seconds() / float64(len(jobs))
	}
	return busy, Median(millis(waits))
}
