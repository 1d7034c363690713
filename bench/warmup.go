package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prisim"
	"prisim/internal/workloads"
)

// warmupPolicies are the policies each warmup-sampled workload runs under.
var warmupPolicies = []prisim.Policy{prisim.PolicyBase, prisim.PolicyPRI}

// warmupRun is the timed window after each long fast-forward.
const warmupRun = 4_000

// warmupWarmPasses is how often each pass's points are re-queried warm.
const warmupWarmPasses = 10

// runWarmupSampled samples every workload at width 4 under two policies
// after a seeded fast-forward of 200k-400k instructions, on a fresh Engine
// per pass. Two callers each take a workload at a time: a cold request
// samples one workload under both policies; a warm request re-queries all
// of the pass's points from its Engine; an op is one point.
func runWarmupSampled(ctx context.Context, r *run) error {
	if _, err := setup(r, func() (struct{}, error) { return struct{}{}, nil }, nil); err != nil {
		return err
	}
	var benches []string
	for _, w := range workloads.All() {
		benches = append(benches, w.Name)
	}
	var recheck []simPoint
	var recheckWant []prisim.Result
	var lastPts []simPoint
	var lastRes []prisim.Result
	err := r.loop(ctx, 1, func(_, i int, tr *Tracer) error {
		ff, run := warmupFF(r.cfg.Seed, i), uint64(warmupRun)
		if r.cfg.Tiny {
			ff, run = ff/100, run/10
		}
		eng := prisim.NewEngine(prisim.WithParallelism(Workers), prisim.WithBudget(ff, run))
		var pts []simPoint
		for _, b := range benches {
			for _, pol := range warmupPolicies {
				pts = append(pts, simPoint{Bench: b, Width: 4, Policy: pol, FF: ff, Run: run})
			}
		}
		res := make([]prisim.Result, len(pts))
		errs := make([]error, len(pts))
		order := rngFor(r.cfg.Seed, "warmup-order", i).Perm(len(benches))
		var mu sync.Mutex
		parallel(len(order), func(worker, t int) {
			sp := tr.Begin("sample.workload", -1, worker)
			start := time.Now()
			for k := range warmupPolicies {
				j := order[t]*len(warmupPolicies) + k
				tr.Do("prisim.Simulate", sp, worker, func() { res[j], errs[j] = eng.Simulate(ctx, pts[j].options()) })
			}
			lat := time.Since(start)
			tr.End(sp)
			mu.Lock()
			r.cold = append(r.cold, lat)
			mu.Unlock()
		})
		r.attempt(len(pts))
		for j, err := range errs {
			if err != nil {
				r.fail("%+v: %v", pts[j], err)
			}
		}
		r.ops += len(pts)
		for range warmupWarmPasses {
			order := rngFor(r.cfg.Seed, "warmup-warm", i).Perm(len(pts))
			got := make([]prisim.Result, len(pts))
			errs := make([]error, len(pts))
			start := time.Now()
			for _, j := range order {
				got[j], errs[j] = eng.Simulate(ctx, pts[j].options())
			}
			r.warm = append(r.warm, time.Since(start))
			for j := range pts {
				r.check(errs[j] == nil && sameResult(got[j], res[j]), "warm re-query of %+v changed its result (%v)", pts[j], errs[j])
			}
		}
		r.engines = append(r.engines, eng.CacheStats())
		for _, j := range sample(rngFor(r.cfg.Seed, "warmup-check", i), len(pts), len(pts)/10) {
			recheck = append(recheck, pts[j])
			recheckWant = append(recheckWant, res[j])
		}
		lastPts, lastRes = pts, res
		return nil
	})
	if err != nil {
		return err
	}

	// The sampled points must come out the same when each replays its
	// fast-forward instead of cloning a snapshot.
	r.logf("re-running %d sampled points without snapshots", len(recheck))
	replay := prisim.NewEngine(prisim.WithParallelism(Workers), prisim.WithSnapshots(false))
	got := make([]prisim.Result, len(recheck))
	errs := make([]error, len(recheck))
	parallel(len(recheck), func(_, i int) { got[i], errs[i] = replay.Simulate(ctx, recheck[i].options()) })
	for i := range recheck {
		r.check(errs[i] == nil && sameResult(got[i], recheckWant[i]), "%+v without snapshots: %s", recheck[i], diffNote(got[i], errs[i]))
	}
	if !r.cfg.Trace {
		return nil
	}
	r.probeAnalysis(suitePrograms(benches))
	if err := r.layerSimulation(ctx, lastPts, lastRes, "", true); err != nil {
		return err
	}
	r.predict("ooo.ff_share", 0.5)
	return nil
}

// diffNote describes a result that failed a check.
func diffNote(got prisim.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("got %+v", got)
}
