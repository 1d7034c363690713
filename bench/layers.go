package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/bpred"
	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/fabric"
	"prisim/internal/isa"
	"prisim/internal/memsys"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
	"prisim/prisimclient"
)

// simPoint is one simulation point with its budget resolved.
type simPoint struct {
	Bench    string
	Width    int
	Policy   prisim.Policy
	PhysRegs int // 0 = the machine's default
	FF, Run  uint64
}

func (p simPoint) options() prisim.Options {
	return prisim.Options{Benchmark: p.Bench, Width: p.Width, Policy: p.Policy, PhysRegs: p.PhysRegs, FastForward: p.FF, Run: p.Run}
}

func (p simPoint) request() prisimclient.JobRequest {
	return prisimclient.JobRequest{Kind: prisimclient.KindSimulate, Benchmark: p.Bench, Width: p.Width,
		Policy: string(p.Policy), PhysRegs: p.PhysRegs, FastForward: p.FF, Run: p.Run}
}

// corePolicies maps public policy names to the renamer's policies.
var corePolicies = func() map[prisim.Policy]core.Policy {
	m := map[prisim.Policy]core.Policy{}
	for _, cp := range append([]core.Policy{core.PolicyBase}, core.AllPolicies...) {
		m[prisim.Policy(cp.Name())] = cp
	}
	return m
}()

// machine is the pipeline configuration the Engine simulates p on.
func (p simPoint) machine() ooo.Config {
	cfg := ooo.Width4()
	if p.Width == 8 {
		cfg = ooo.Width8()
	}
	cfg = cfg.WithPolicy(corePolicies[p.Policy])
	if p.PhysRegs > 0 {
		cfg = cfg.WithPRs(p.PhysRegs)
	}
	return cfg
}

// warmKey is one fast-forward snapshot of the decomposed pass: a workload
// at a fast-forward length, built once and cloned by every point using it.
type warmKey struct {
	bench string
	ff    uint64
	cfg   ooo.Config
	prog  *asm.Program
	warm  *ooo.WarmState
	done  chan struct{}

	// State the functional fast-forward leaves, which the layer replays
	// must reproduce.
	ffInstrs                        uint64
	dl1Miss, l2Miss                 float64
	bpLookups, bpDirMiss, bpTgtMiss uint64
}

// decomposition is the outcome of one decomposed pass.
type decomposition struct {
	keys     []*warmKey
	wall     time.Duration
	from, to int64 // tracer window of its spans

	cycles, committed, stallRegs uint64
}

// decompose re-executes pts the way the harness does — build, fast-forward
// and capture once per snapshot key, then clone and run per point — calling
// each layer's public functions directly, inside spans, on Workers
// goroutines. Every point must reproduce the Engine's cycle and commit
// counts in ref.
func (r *run) decompose(ctx context.Context, pts []simPoint, ref []prisim.Result) (*decomposition, error) {
	d := &decomposition{}
	index := map[string]*warmKey{}
	pointKey := make([]*warmKey, len(pts))
	for i, p := range pts {
		id := fmt.Sprintf("%s/%d", p.Bench, p.FF)
		k, ok := index[id]
		if !ok {
			if _, found := workloads.ByName(p.Bench); !found {
				return nil, fmt.Errorf("unknown benchmark %q", p.Bench)
			}
			k = &warmKey{bench: p.Bench, ff: p.FF, cfg: p.machine(), done: make(chan struct{})}
			index[id] = k
			d.keys = append(d.keys, k)
		}
		pointKey[i] = k
	}

	tr := r.tr
	type outcome struct{ cycles, committed, stallRegs uint64 }
	out := make([]outcome, len(pts))
	buildKey := func(k *warmKey, worker int) {
		defer close(k.done)
		sp := tr.Begin("decomposed.key", -1, worker)
		defer tr.End(sp)
		tr.Do("workloads.Build", sp, worker, func() { k.prog = mustBuild(k.bench) })
		var p *ooo.Pipeline
		tr.Do("ooo.New", sp, worker, func() { p = ooo.New(k.cfg, k.prog) })
		tr.Do("ooo.FastForward", sp, worker, func() { k.ffInstrs = p.FastForward(k.ff) })
		k.dl1Miss, k.l2Miss = p.Mem().DL1.MissRate(), p.Mem().L2.MissRate()
		bp := p.Bpred()
		k.bpLookups, k.bpDirMiss, k.bpTgtMiss = bp.Lookups, bp.DirMiss, bp.TargetMiss
		tr.Do("ooo.CaptureWarm", sp, worker, func() { k.warm = p.CaptureWarm() })
	}
	runPoint := func(i, worker int) {
		k := pointKey[i]
		select {
		case <-k.done:
		case <-ctx.Done():
			return
		}
		sp := tr.Begin("decomposed.point", -1, worker)
		defer tr.End(sp)
		var p *ooo.Pipeline
		tr.Do("ooo.NewFromWarm", sp, worker, func() { p = ooo.NewFromWarm(pts[i].machine(), k.warm) })
		tr.Do("ooo.Run", sp, worker, func() { p.Run(pts[i].Run) })
		st := p.Stats()
		out[i] = outcome{st.Cycles, st.Committed, st.RenameStallRegs}
	}

	// Keys come first in the task order, so a point waits for its key only
	// while another worker is still building it.
	d.from = tr.Now()
	start := time.Now()
	parallel(len(d.keys)+len(pts), func(worker, t int) {
		switch {
		case ctx.Err() != nil:
		case t < len(d.keys):
			buildKey(d.keys[t], worker)
		default:
			runPoint(t-len(d.keys), worker)
		}
	})
	d.wall = time.Since(start)
	d.to = tr.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, o := range out {
		r.check(o.cycles == ref[i].Cycles && o.committed == ref[i].Committed,
			"decomposed %+v: cycles/committed %d/%d, engine %d/%d", pts[i], o.cycles, o.committed, ref[i].Cycles, ref[i].Committed)
		d.cycles += o.cycles
		d.committed += o.committed
		d.stallRegs += o.stallRegs
	}
	return d, nil
}

func mustBuild(bench string) *asm.Program {
	w, _ := workloads.ByName(bench)
	return w.Build(0)
}

// layerDecomposed reports the timed-pipeline and warm-up layers from a
// decomposed pass's spans; coverage says whether it also sets
// trace.coverage (the workloads whose traced execution it is).
func (r *run) layerDecomposed(d *decomposition, coverage bool) {
	spans, parents := Family(r.tr.Spans(), d.from, d.to)
	runT, _ := sumByName(spans, "ooo.Run")
	ffT, _ := sumByName(spans, "ooo.FastForward")
	newT, nNew := sumByName(spans, "ooo.New")
	capT, nCap := sumByName(spans, "ooo.CaptureWarm")
	cloneT, nClone := sumByName(spans, "ooo.NewFromWarm")
	var ffInstrs uint64
	for _, k := range d.keys {
		ffInstrs += k.ffInstrs
	}
	workerTime := float64(Workers) * d.wall.Seconds()
	r.layer["ooo.run_s"] = runT.Seconds()
	r.layer["ooo.cycles"] = float64(d.cycles)
	r.layer["ooo.run_ns_per_cycle"] = ratio(float64(runT), float64(d.cycles))
	r.layer["ooo.run_ns_per_instr"] = ratio(float64(runT), float64(d.committed))
	r.layer["ooo.cpi"] = ratio(float64(d.cycles), float64(d.committed))
	r.layer["ooo.rename_stall_regs_frac"] = ratio(float64(d.stallRegs), float64(d.cycles))
	r.layer["ooo.run_share"] = ratio(runT.Seconds(), workerTime)
	r.layer["ooo.ff_s"] = ffT.Seconds()
	r.layer["ooo.ff_ns_per_instr"] = ratio(float64(ffT), float64(ffInstrs))
	r.layer["ooo.ff_share"] = ratio(ffT.Seconds(), workerTime)
	r.layer["ooo.new_ms"] = ratio(float64(newT)/1e6, float64(nNew))
	r.layer["ooo.capture_ms"] = ratio(float64(capT)/1e6, float64(nCap))
	r.layer["ooo.clone_ms"] = ratio(float64(cloneT)/1e6, float64(nClone))
	r.detail["decomposed_points"] = nClone
	r.detail["decomposed_keys"] = len(d.keys)
	r.detail["decomposed_wall_s"] = d.wall.Seconds()
	if coverage {
		c := Coverage(spans, parents, Workers, d.wall)
		r.layer["trace.coverage"] = c
		// A tiny pass is mostly goroutine start-up, which no span covers.
		if !r.cfg.Tiny {
			r.check(c >= minCoverage, "span self-times cover %.3f of workers × wall, want at least %v", c, minCoverage)
		}
	}
}

// minCoverage is the share of workers × wall the decomposed pass's span
// self-times must cover for its per-layer times to account for the run.
const minCoverage = 0.95

// predict records whether a layer share reached the share the workload was
// chosen for. A miss is reported, not counted as a failed check: it says
// the workload's shape differs from its rationale, not that an output is
// wrong.
func (r *run) predict(metric string, atLeast float64) {
	v := r.layer[metric]
	r.detail["prediction."+metric] = map[string]any{"value": v, "at_least": atLeast, "holds": v >= atLeast}
	r.logf("prediction %s >= %v: %.3f, holds %v", metric, atLeast, v, v >= atLeast)
}

// step is one functionally executed instruction of a fast-forward stream.
type step struct {
	pc, nextPC, addr, result uint64
	uop                      isa.Uop
	taken, isMem             bool
}

// recordStream functionally executes prog's first n instructions and
// keeps what each one did.
func recordStream(prog *asm.Program, n uint64) []step {
	m := emu.New(prog)
	out := make([]step, 0, n)
	for uint64(len(out)) < n && !m.Halted() {
		pc := m.PC
		u := *m.PeekUop()
		info := m.Step()
		out = append(out, step{pc: pc, nextPC: info.NextPC, addr: info.MemAddr, result: info.Result,
			uop: u, taken: info.Taken, isMem: info.IsMem})
	}
	return out
}

// replayLayers replays each key's fast-forward stream through one layer
// at a time — the emulator alone, then a fresh predictor, cache hierarchy
// and renamer — and reports each layer's cost per operation. The
// predictor and caches must end where the pipeline's fast-forward left
// them, and the renamer's invariants must hold.
func (r *run) replayLayers(keys []*warmKey) {
	var emuT, bpT, memT, renT time.Duration
	var instrs, branches, mispredicts, accesses uint64
	var dl1Acc, dl1Miss, l2Acc, l2Miss uint64
	var renames, inlined, dests, ckpts uint64
	for _, k := range keys {
		stream := recordStream(k.prog, k.ff)

		start := time.Now()
		instrs += emu.New(k.prog).Run(k.ff)
		emuT += time.Since(start)

		start = time.Now()
		bp := bpred.New(k.cfg.Bpred)
		for i := range stream {
			s := &stream[i]
			if s.uop.Flags&isa.UopControl == 0 {
				continue
			}
			pred := bp.Predict(s.pc, s.uop.Inst)
			predNPC := s.pc + 4
			if pred.Taken {
				predNPC = pred.Target
			}
			if predNPC != s.nextPC {
				bp.Recover(s.pc, s.uop.Inst, pred, s.taken)
				mispredicts++
			}
			bp.Update(s.pc, s.uop.Inst, pred, s.taken, s.nextPC)
			branches++
		}
		bpT += time.Since(start)
		r.check(bp.Lookups == k.bpLookups && bp.DirMiss == k.bpDirMiss && bp.TargetMiss == k.bpTgtMiss,
			"bpred replay of %s/%d diverged from the pipeline's fast-forward", k.bench, k.ff)

		start = time.Now()
		h := memsys.New(k.cfg.Mem)
		for i := range stream {
			s := &stream[i]
			h.InstFetch(s.pc)
			if s.isMem {
				h.Data(s.addr, s.uop.Flags&isa.UopStore != 0)
			}
		}
		memT += time.Since(start)
		r.check(h.DL1.MissRate() == k.dl1Miss && h.L2.MissRate() == k.l2Miss,
			"memsys replay of %s/%d: miss rates %v/%v, pipeline %v/%v", k.bench, k.ff,
			h.DL1.MissRate(), h.L2.MissRate(), k.dl1Miss, k.l2Miss)
		accesses += h.IL1.Accesses + h.DL1.Accesses
		dl1Acc, dl1Miss = dl1Acc+h.DL1.Accesses, dl1Miss+h.DL1.Misses
		l2Acc, l2Miss = l2Acc+h.L2.Accesses, l2Miss+h.L2.Misses

		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt} {
			params := ooo.Width4().Rename
			params.Policy = pol
			start = time.Now()
			st, err := renameReplay(stream, params, ooo.Width4().ROBSize)
			renT += time.Since(start)
			r.check(err == nil, "renamer replay of %s/%d under %s: %v", k.bench, k.ff, pol.Name(), err)
			renames += uint64(len(stream))
			ckpts += st.checkpoints
			if pol.PRI {
				inlined += st.inlined
				dests += st.dests
			}
		}
	}
	r.layer["emu.ns_per_instr"] = ratio(float64(emuT), float64(instrs))
	r.layer["emu.instrs"] = float64(instrs)
	r.layer["bpred.ns_per_branch"] = ratio(float64(bpT), float64(branches))
	r.layer["bpred.branches"] = float64(branches)
	r.layer["bpred.mispredict_ratio"] = ratio(float64(mispredicts), float64(branches))
	r.layer["memsys.ns_per_access"] = ratio(float64(memT), float64(accesses))
	r.layer["memsys.accesses"] = float64(accesses)
	r.layer["memsys.dl1_miss_ratio"] = ratio(float64(dl1Miss), float64(dl1Acc))
	r.layer["memsys.l2_miss_ratio"] = ratio(float64(l2Miss), float64(l2Acc))
	r.layer["core.ns_per_rename"] = ratio(float64(renT), float64(renames))
	r.layer["core.renames"] = float64(renames)
	r.layer["core.inline_ratio"] = ratio(float64(inlined), float64(dests))
	r.layer["core.checkpoints"] = float64(ckpts)
	ffT := r.layer["ooo.ff_s"]
	r.layer["ooo.ff_layers_ratio"] = ratio((emuT + bpT + memT).Seconds(), ffT)
}

// renameStats counts what one renamer replay did.
type renameStats struct{ dests, inlined, checkpoints uint64 }

// renameReplay drives a renamer in order over a stream with a window of
// robSize instructions: each instruction looks up its sources, allocates
// its destination (retiring the oldest instructions while the free list
// is empty) and checkpoints at control instructions; retiring reads the
// sources, writes the result, resolves the checkpoint and commits the
// displaced mapping. It ends by checking the renamer's invariants.
func renameReplay(stream []step, params core.Params, robSize int) (st renameStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("renamer panicked: %v", p)
		}
	}()
	type entry struct {
		srcs    [3]core.Operand
		nsrc    int
		alloc   core.Allocation
		hasDest bool
		value   uint64
		ck      *core.Checkpoint
	}
	ren := core.NewRenamer(params)
	window := make([]entry, robSize) // a ring of n entries from head
	head, n := 0, 0
	var now uint64
	retire := func() {
		e := &window[head]
		head, n = (head+1)%robSize, n-1
		for i := range e.nsrc {
			ren.ReleaseRead(e.srcs[i], now, true)
		}
		if e.hasDest {
			if out := ren.WriteResult(e.alloc, e.value, now); out.Inlined {
				st.inlined++
			}
		}
		if e.ck != nil {
			ren.ResolveCheckpoint(e.ck, now)
		}
		if e.hasDest {
			ren.CommitRelease(e.alloc.Old, now)
		}
	}
	for i := range stream {
		s := &stream[i]
		now++
		if n == robSize {
			retire()
		}
		var e entry
		e.nsrc = int(s.uop.NSrc)
		for j := range e.nsrc {
			e.srcs[j] = ren.LookupSrc(s.uop.Srcs[j])
		}
		if s.uop.Flags&isa.UopHasDest != 0 {
			fp := s.uop.Dest.IsFP()
			for !ren.CanAllocate(fp) {
				if n == 0 {
					return st, fmt.Errorf("free list empty with an empty window at instruction %d", i)
				}
				retire()
			}
			alloc, ok := ren.AllocDest(s.uop.Dest, now)
			if !ok {
				return st, fmt.Errorf("allocation failed after CanAllocate at instruction %d", i)
			}
			e.alloc, e.hasDest, e.value = alloc, true, s.result
			st.dests++
		}
		if s.uop.Flags&isa.UopTakesCkpt != 0 {
			e.ck = ren.TakeCheckpoint()
			st.checkpoints++
		}
		window[(head+n)%robSize] = e
		n++
	}
	for n > 0 {
		now++
		retire()
	}
	ren.CheckInvariants()
	return st, nil
}

// probeSimulate times cold Engine.Simulate calls, each on a fresh Engine,
// over a seeded sample of pts.
func (r *run) probeSimulate(ctx context.Context, pts []simPoint, k int) error {
	var lat []time.Duration
	for _, i := range sample(rngFor(r.cfg.Seed, "probe-simulate"), len(pts), k) {
		eng := prisim.NewEngine(prisim.WithParallelism(Workers))
		start := time.Now()
		if _, err := eng.Simulate(ctx, pts[i].options()); err != nil {
			return err
		}
		lat = append(lat, time.Since(start))
	}
	r.layer["prisim.simulate_ms"] = Median(millis(lat))
	return nil
}

// probeWire times the client-side content hash and the JSON round trip
// of a result, over the run's points and their results.
func (r *run) probeWire(pts []simPoint, res []prisim.Result) error {
	var keyT, jsonT []time.Duration
	for i, p := range pts {
		req := p.request()
		start := time.Now()
		req.CacheKey = prisimclient.CacheKeyFor(prisim.Version, req)
		keyT = append(keyT, time.Since(start))

		start = time.Now()
		data, err := json.Marshal(prisimclient.JobResult{ID: "job", Result: &res[i], CacheKey: req.CacheKey})
		if err != nil {
			return err
		}
		var back prisimclient.JobResult
		if err := json.Unmarshal(data, &back); err != nil {
			return err
		}
		jsonT = append(jsonT, time.Since(start))
		r.check(back.Result != nil && *back.Result == res[i], "JSON round trip changed the result of %+v", p)
	}
	r.layer["prisimclient.cachekey_us"] = Median(millis(keyT)) * 1e3
	r.layer["prisimclient.json_us"] = Median(millis(jsonT)) * 1e3
	return nil
}

// probeStore times durable appends and lookups of the run's results on a
// scratch store, then replaying a log: the run's own store log when
// logPath is set, the scratch log otherwise.
func (r *run) probeStore(pts []simPoint, res []prisim.Result, logPath string) error {
	scratch := filepath.Join(r.cfg.WorkDir, "probe-store.jsonl")
	st, err := fabric.OpenStore(scratch)
	if err != nil {
		return err
	}
	var putT, getT []time.Duration
	keys := make([]string, len(pts))
	for i, p := range pts {
		req := p.request()
		keys[i] = prisimclient.CacheKeyFor(prisim.Version, req)
		start := time.Now()
		if err := st.Put(fabric.Entry{Key: keys[i], Kernel: prisim.Version, Created: time.Now(), Request: req, Result: res[i]}); err != nil {
			st.Close()
			return err
		}
		putT = append(putT, time.Since(start))
	}
	for i, key := range keys {
		start := time.Now()
		e, ok := st.Get(key)
		getT = append(getT, time.Since(start))
		r.check(ok && e.Result == res[i], "store lookup of %+v missed or changed", pts[i])
	}
	if err := st.Close(); err != nil {
		return err
	}
	if logPath == "" {
		logPath = scratch
	}
	var openT []time.Duration
	for range 3 {
		start := time.Now()
		s, err := fabric.OpenStore(logPath)
		if err != nil {
			return err
		}
		openT = append(openT, time.Since(start))
		s.Close()
	}
	r.layer["fabric.store_put_us"] = Median(millis(putT)) * 1e3
	r.layer["fabric.store_get_us"] = Median(millis(getT)) * 1e3
	r.layer["fabric.store_open_ms"] = Median(millis(openT))
	return nil
}

// probeAnalysis times priscan over the program images the workload runs.
func (r *run) probeAnalysis(progs []*asm.Program) {
	var lat []time.Duration
	rejected := 0
	for _, p := range progs {
		start := time.Now()
		rep := analysis.Analyze(p, analysis.Options{})
		lat = append(lat, time.Since(start))
		for _, f := range rep.Findings {
			if f.Severity == analysis.SevError {
				rejected++
				break
			}
		}
	}
	r.layer["asm_analysis.analyze_ms"] = Median(millis(lat))
	r.layer["asm_analysis.rejected"] = float64(rejected)
}

// suitePrograms builds the images of the named workloads.
func suitePrograms(benches []string) []*asm.Program {
	seen := map[string]bool{}
	var out []*asm.Program
	for _, b := range benches {
		if !seen[b] {
			seen[b] = true
			out = append(out, mustBuild(b))
		}
	}
	return out
}

// layerSimulation runs the layer measurements every workload shares on
// its own points and their Engine results: the decomposed pass, the layer
// replays, and the direct-call probes. coverage is as for layerDecomposed.
func (r *run) layerSimulation(ctx context.Context, pts []simPoint, ref []prisim.Result, storeLog string, coverage bool) error {
	r.logf("traced: decomposing %d points", len(pts))
	d, err := r.decompose(ctx, pts, ref)
	if err != nil {
		return err
	}
	r.layerDecomposed(d, coverage)
	r.logf("traced: replaying %d fast-forward streams", len(d.keys))
	r.replayLayers(d.keys)
	if err := r.probeSimulate(ctx, pts, 8); err != nil {
		return err
	}
	if err := r.probeWire(pts, ref); err != nil {
		return err
	}
	return r.probeStore(pts, ref, storeLog)
}

// benchesOf lists the benchmarks of pts in first-seen order.
func benchesOf(pts []simPoint) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.Bench] {
			seen[p.Bench] = true
			out = append(out, p.Bench)
		}
	}
	return out
}
