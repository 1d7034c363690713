package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/emu"
	"prisim/internal/fabric"
	"prisim/internal/harness"
	"prisim/internal/service"
	"prisim/internal/workloads"
	"prisim/prisimclient"
)

// daemon is one in-process prisimd: a service.Server behind a real
// loopback HTTP listener.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed once Serve has returned
}

func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(cfg)
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop cancels the daemon's jobs, closes its connections, and waits for
// its workers and listener to exit.
func (d *daemon) stop() {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		d.hs.Close()
	}
	<-d.done
}

// newClient returns a client that holds at most one connection.
func newClient(url string) (*prisimclient.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return prisimclient.NewClient(url, prisimclient.WithHTTPClient(&http.Client{Transport: t})), t
}

// Request classes of the service mix (drawClass gives their shares).
const (
	classCold    = "cold"
	classWarm    = "warm"
	classProgram = "program"
	classCheck   = "check"
)

// drawClass gives a client's n-th request its class. Each block of 20
// requests holds exactly 8 cold, 6 warm, 3 program and 3 check requests in
// a seeded order, so every seed sends the same mix.
func drawClass(seed int64, client, n int) string {
	switch k := rngFor(seed, "svc-class", client, n/20).Perm(20)[n%20]; {
	case k < 8:
		return classCold
	case k < 14:
		return classWarm
	case k < 17:
		return classProgram
	default:
		return classCheck
	}
}

// svcPoint is the k-th cold point of the service mix. Each block of 27
// takes every workload once, in a seeded order, so every seed sends the
// same workload mix; a workload's width, policy and register file come
// from a seeded permutation of its combinations, so no point repeats.
func svcPoint(seed int64, k int, b harness.Budget) simPoint {
	benches := workloads.All()
	block := k / len(benches)
	wi := rngFor(seed, "svc-bench", block).Perm(len(benches))[k%len(benches)]
	pols := prisim.Policies()
	combos := 2 * len(pols) * svcPhysRegsN
	c := rngFor(seed, "svc-combo", wi).Perm(combos)[block%combos]
	return simPoint{Bench: benches[wi].Name, Width: 4 + 4*(c%2), Policy: pols[c/2%len(pols)],
		PhysRegs: svcPhysRegsLo + c/2/len(pols), FF: b.FastForward, Run: b.Run}
}

// svcRequestsPerPass is how many requests each client sends per pass.
const svcRequestsPerPass = 50

// svcPhysRegs is the register-file range cold points draw from.
const svcPhysRegsLo, svcPhysRegsN = 40, 60

// svcStack is the service-mix system under test.
type svcStack struct {
	store      *fabric.Store
	storePath  string
	d          *daemon
	clients    []*prisimclient.Client
	transports []*http.Transport
}

func (s *svcStack) stop() {
	s.d.stop()
	s.store.Close()
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

// svcClient is one closed-loop client's state across passes.
type svcClient struct {
	id    int
	c     *prisimclient.Client
	n     int // requests sent
	colds int // cold points drawn

	donePts []simPoint      // completed cold points, for warm resubmission
	doneRes []prisim.Result // their results

	cold, warm, program, check []time.Duration
	queue, exec, overhead      []time.Duration
	execBy                     map[string][]time.Duration
	programs                   map[int][]byte // program id -> console output
	checks                     map[int]string // program id -> image SHA-256
	rejected                   int
	failures                   []string
	attempted                  int
}

// runServiceMix drives an in-process prisimd (two workers, durable store,
// real loopback HTTP) with two closed-loop clients. Each request is a cold
// simulate job on a seeded unique point (40%), a warm resubmission of a
// point the client already completed (30%), a generated program job (15%)
// or a program check (15%). A cold request is a cold simulate job, a warm
// request a resubmission, an op any completed request; a pass is
// svcRequestsPerPass requests per client.
func runServiceMix(ctx context.Context, r *run) error {
	b := harness.DefaultBudget
	if r.cfg.Tiny {
		b = paperTiny
	}
	st, err := setup(r, func() (*svcStack, error) {
		dir, err := os.MkdirTemp(r.cfg.WorkDir, "svc-")
		if err != nil {
			return nil, err
		}
		s := &svcStack{storePath: filepath.Join(dir, "store.jsonl")}
		if s.store, err = fabric.OpenStore(s.storePath); err != nil {
			return nil, err
		}
		cfg := service.Config{Workers: Workers, Store: s.store}
		cfg.Budget.FastForward, cfg.Budget.Run = b.FastForward, b.Run
		if s.d, err = startDaemon(cfg); err != nil {
			s.store.Close()
			return nil, err
		}
		for range Workers {
			c, t := newClient(s.d.url)
			s.clients, s.transports = append(s.clients, c), append(s.transports, t)
		}
		if _, err := s.clients[0].Version(ctx); err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	}, (*svcStack).stop)
	if err != nil {
		return err
	}
	stop := sync.OnceFunc(st.stop)
	defer stop()

	pointAt := func(k int) simPoint { return svcPoint(r.cfg.Seed, k, b) }
	clients := make([]*svcClient, Workers)
	for i := range clients {
		clients[i] = &svcClient{id: i, c: st.clients[i], execBy: map[string][]time.Duration{},
			programs: map[int][]byte{}, checks: map[int]string{}}
	}

	err = r.loop(ctx, Workers, func(lane, _ int, tr *Tracer) error {
		for range svcRequestsPerPass {
			if err := ctx.Err(); err != nil {
				return err
			}
			clients[lane].request(ctx, r.cfg.Seed, tr, pointAt)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var progLat, checkLat []time.Duration
	var coldPts []simPoint
	var coldRes []prisim.Result
	execBy := map[string][]time.Duration{}
	var queue, overhead []time.Duration
	rejected := 0
	for _, cl := range clients {
		r.attempt(cl.attempted)
		for _, f := range cl.failures {
			r.fail("%s", f)
		}
		r.cold = append(r.cold, cl.cold...)
		r.warm = append(r.warm, cl.warm...)
		progLat, checkLat = append(progLat, cl.program...), append(checkLat, cl.check...)
		r.ops += len(cl.cold) + len(cl.warm) + len(cl.program) + len(cl.check)
		coldPts, coldRes = append(coldPts, cl.donePts...), append(coldRes, cl.doneRes...)
		queue, overhead = append(queue, cl.queue...), append(overhead, cl.overhead...)
		for k, v := range cl.execBy {
			execBy[k] = append(execBy[k], v...)
		}
		rejected += cl.rejected
	}
	r.extra["service.program_p50_ms"] = Value{Median(millis(progLat)), "ms"}
	r.extra["service.program_p95_ms"] = Value{Percentile(millis(progLat), 95), "ms"}
	r.extra["service.check_p50_ms"] = Value{Median(millis(checkLat)), "ms"}
	r.extra["service.check_p95_ms"] = Value{Percentile(millis(checkLat), 95), "ms"}
	r.detail["program_samples"], r.detail["check_samples"] = len(progLat), len(checkLat)
	_, storeHits, _ := st.store.Stats()
	r.engines = append(r.engines, st.d.srv.Engine().CacheStats())
	stop()

	if err := r.verifyServiceMix(ctx, clients, coldPts, coldRes, b); err != nil {
		return err
	}
	if !r.cfg.Trace {
		return nil
	}

	var submits []time.Duration
	for _, s := range r.tr.Spans() {
		if s.Name == "prisimclient.Submit" && s.End >= 0 {
			submits = append(submits, s.Dur())
		}
	}
	r.extra["service.submit_ms"] = Value{Median(millis(submits)), "ms"}
	r.extra["service.queue_wait_ms"] = Value{Median(millis(queue)), "ms"}
	for _, class := range []string{classCold, classWarm, classProgram} {
		r.extra["service.exec_"+class+"_ms"] = Value{Median(millis(execBy[class])), "ms"}
	}
	r.extra["service.http_ms"] = Value{Median(millis(overhead)), "ms"}
	r.extra["service.store_served_ratio"] = Value{ratio(float64(storeHits), float64(len(r.warm))), "ratio"}
	r.extra["service.rejected"] = Value{float64(rejected), "count"}
	r.layer["trace.coverage"] = r.loopCoverage()

	var srcs []string
	for _, cl := range clients {
		for id := range cl.programs {
			srcs = append(srcs, GenProgram(r.cfg.Seed, id))
		}
		for id := range cl.checks {
			srcs = append(srcs, GenProgram(r.cfg.Seed, id))
		}
	}
	r.probeAnalysis(r.probeAssemble(srcs))
	i := sample(rngFor(r.cfg.Seed, "svc-decompose"), len(coldPts), 32)
	return r.layerSimulation(ctx, pick(coldPts, i), pick(coldRes, i), st.storePath, false)
}

// request sends the client's next request and records its latency and
// wire timings; failures are kept on the client.
func (cl *svcClient) request(ctx context.Context, seed int64, tr *Tracer, pointAt func(int) simPoint) {
	n := cl.n
	cl.n++
	class := drawClass(seed, cl.id, n)
	if class == classWarm && len(cl.donePts) == 0 {
		class = classCold
	}
	rng := rngFor(seed, "svc-request", cl.id, n)
	progID := (n*Workers + cl.id) * 2 // checks use progID+1: every program is distinct
	var req prisimclient.JobRequest
	var checkSrc []byte
	var warmIdx int
	switch class {
	case classCold:
		p := pointAt(2*cl.colds + cl.id)
		cl.colds++
		cl.donePts = append(cl.donePts, p)
		cl.doneRes = append(cl.doneRes, prisim.Result{})
		req = p.request()
	case classWarm:
		warmIdx = rng.IntN(len(cl.donePts))
		req = cl.donePts[warmIdx].request()
	case classProgram:
		req = prisimclient.JobRequest{Kind: prisimclient.KindProgram, Source: []byte(GenProgram(seed, progID)),
			Width: 4 + 4*rng.IntN(2), Policy: string(prisim.Policies()[rng.IntN(len(prisim.Policies()))]), Run: ProgramRunBudget}
	case classCheck:
		progID++
		checkSrc = []byte(GenProgram(seed, progID))
	}

	cl.attempted++
	sp := tr.Begin("request."+class, -1, cl.id)
	defer tr.End(sp)
	start := time.Now()
	if class == classCheck {
		var info *prisimclient.ProgramInfo
		var err error
		tr.Do("prisimclient.CheckProgram", sp, cl.id, func() { info, err = cl.c.CheckProgram(ctx, checkSrc) })
		lat := time.Since(start)
		if err != nil {
			cl.failf("check of program %d: %v", progID, err)
			return
		}
		cl.check = append(cl.check, lat)
		cl.checks[progID] = info.SHA256
		return
	}
	var job *prisimclient.Job
	var res *prisimclient.JobResult
	var err error
	tr.Do("prisimclient.Submit", sp, cl.id, func() { job, err = cl.c.Submit(ctx, req) })
	if err == nil {
		tr.Do("prisimclient.Wait", sp, cl.id, func() { job, err = cl.c.Wait(ctx, job.ID, 0) })
	}
	if err == nil && job.State != prisimclient.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if err == nil {
		tr.Do("prisimclient.Result", sp, cl.id, func() { res, err = cl.c.Result(ctx, job.ID) })
	}
	if err == nil && res.Result == nil {
		err = fmt.Errorf("job %s: no result", job.ID)
	}
	lat := time.Since(start)
	if err != nil {
		if errors.Is(err, prisimclient.ErrQueueFull) {
			cl.rejected++
		}
		cl.failf("%s request: %v", class, err)
		if class == classCold { // never resubmit a point that did not complete
			cl.donePts, cl.doneRes = cl.donePts[:len(cl.donePts)-1], cl.doneRes[:len(cl.doneRes)-1]
		}
		return
	}
	cl.queue = append(cl.queue, job.Started.Sub(job.Created))
	cl.execBy[class] = append(cl.execBy[class], job.Finished.Sub(job.Started))
	cl.overhead = append(cl.overhead, lat-job.Finished.Sub(job.Created))
	switch class {
	case classCold:
		cl.cold = append(cl.cold, lat)
		cl.doneRes[len(cl.doneRes)-1] = *res.Result
	case classWarm:
		cl.warm = append(cl.warm, lat)
		if !sameResult(*res.Result, cl.doneRes[warmIdx]) {
			cl.failf("warm resubmission of %+v returned a different result", cl.donePts[warmIdx])
		}
	case classProgram:
		cl.program = append(cl.program, lat)
		cl.programs[progID] = res.Output
	}
}

func (cl *svcClient) failf(format string, args ...any) {
	cl.failures = append(cl.failures, fmt.Sprintf(format, args...))
}

// verifyServiceMix re-checks a seeded 5% of cold points against a direct
// Engine.Simulate, every program job's console output against the
// functional emulator, and every program check's image identity against
// the benchmark's own assembly.
func (r *run) verifyServiceMix(ctx context.Context, clients []*svcClient, coldPts []simPoint, coldRes []prisim.Result, b harness.Budget) error {
	idx := sample(rngFor(r.cfg.Seed, "svc-recheck"), len(coldPts), (len(coldPts)+19)/20)
	eng := prisim.NewEngine(prisim.WithParallelism(Workers), prisim.WithBudget(b.FastForward, b.Run))
	got := make([]prisim.Result, len(idx))
	errs := make([]error, len(idx))
	parallel(len(idx), func(_, i int) { got[i], errs[i] = eng.Simulate(ctx, coldPts[idx[i]].options()) })
	for i, j := range idx {
		r.check(errs[i] == nil && sameResult(got[i], coldRes[j]), "cold %+v differs from a direct Simulate: %s", coldPts[j], diffNote(got[i], errs[i]))
	}

	type progCheck struct {
		id     int
		output []byte // program jobs
		sha    string // program checks
	}
	var todo []progCheck
	for _, cl := range clients {
		for id, out := range cl.programs {
			todo = append(todo, progCheck{id: id, output: out})
		}
		for id, sha := range cl.checks {
			todo = append(todo, progCheck{id: id, sha: sha})
		}
	}
	problems := make([]string, len(todo))
	parallel(len(todo), func(_, i int) {
		c := todo[i]
		prog, err := asm.AssembleFile("program.s", GenProgram(r.cfg.Seed, c.id))
		switch {
		case err != nil:
			problems[i] = err.Error()
		case c.sha != "":
			if prog.SHA256() != c.sha {
				problems[i] = fmt.Sprintf("check of program %d returned image %s, want %s", c.id, c.sha, prog.SHA256())
			}
		default:
			m := emu.New(prog)
			m.Run(ProgramRunBudget)
			if string(m.Output()) != string(c.output) {
				problems[i] = fmt.Sprintf("program %d printed %q, the emulator prints %q", c.id, c.output, m.Output())
			}
		}
	})
	for _, p := range problems {
		r.check(p == "", "%s", p)
	}
	return ctx.Err()
}

// probeAssemble times the assembler over a seeded sample of the
// workload's program sources and returns the images.
func (r *run) probeAssemble(srcs []string) []*asm.Program {
	var lat []time.Duration
	var progs []*asm.Program
	bytes, diags := 0, 0
	for _, i := range sample(rngFor(r.cfg.Seed, "probe-assemble"), len(srcs), 24) {
		start := time.Now()
		p, err := asm.AssembleFile("program.s", srcs[i])
		lat = append(lat, time.Since(start))
		if err != nil {
			diags += len(asm.Diagnostics(err))
			continue
		}
		progs = append(progs, p)
		bytes += len(srcs[i])
	}
	r.extra["asm.assemble_ms"] = Value{Median(millis(lat)), "ms"}
	r.extra["asm.source_kb"] = Value{ratio(float64(bytes)/1e3, float64(len(progs))), "kB"}
	r.extra["asm.errors"] = Value{float64(diags), "count"}
	return progs
}

// pick selects xs at the given indices.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
