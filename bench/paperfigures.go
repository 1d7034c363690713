package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"time"

	"prisim"
	"prisim/internal/core"
	"prisim/internal/harness"
	"prisim/internal/workloads"
)

// PaperExperiments is priexp's default experiment list, in its order.
var PaperExperiments = []string{"table1", "table2", "fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12"}

// GoldenPaperDigest is the SHA-256 of priexp's standard output with no
// arguments: every default experiment at the default budget. The tables
// are deterministic, so any other digest is a wrong answer.
const GoldenPaperDigest = "a2b4a36b2906fc629d4d638730ef51cdf6a75d8514556f241fb7eb9be3380a34"

// paperTiny is the budget of a Tiny paper-figures run.
var paperTiny = harness.Budget{FastForward: 500, Run: 2000}

// paperWarmRegens is how many warm regenerations follow each cold one. A
// warm regeneration allocates enough that the collector runs about every
// dozen, so the median needs hundreds of them to average over its cycles.
const paperWarmRegens = 600

// paperUncached are the default experiments the Engine's result cache does
// not serve: Figure 2 runs the functional emulator afresh every time. A
// warm regeneration leaves them out.
var paperUncached = map[string]bool{"fig2": true}

// runPaperFigures regenerates every default experiment cold on a fresh
// Engine per pass and checks the rendered tables against the golden
// digest, then regenerates every cached experiment warm from that Engine
// paperWarmRegens times. A cold request is the cold regeneration; a warm
// request is one warm regeneration, which must render the same tables; an
// op is one simulation point executed.
func runPaperFigures(ctx context.Context, r *run) error {
	b := harness.DefaultBudget
	want := GoldenPaperDigest
	if r.cfg.Tiny {
		b = paperTiny
		ref := prisim.NewEngine(prisim.WithParallelism(1), prisim.WithSnapshots(false), prisim.WithBudget(b.FastForward, b.Run))
		out, err := regenerate(ctx, ref, nil, nil)
		if err != nil {
			return err
		}
		want = digest(out)
	}
	if _, err := setup(r, func() (struct{}, error) { return struct{}{}, nil }, nil); err != nil {
		return err
	}
	pts := paperPoints(b)
	ref := make([]prisim.Result, len(pts))
	err := r.loop(ctx, 1, func(_, i int, tr *Tracer) error {
		eng := prisim.NewEngine(prisim.WithParallelism(Workers), prisim.WithBudget(b.FastForward, b.Run))
		start := time.Now()
		cold, err := regenerate(ctx, eng, tr, nil)
		if err != nil {
			return err
		}
		r.cold = append(r.cold, time.Since(start))
		r.attempt(1)
		r.check(digest(cold) == want, "paper tables digest %s, want %s", digest(cold), want)
		cs := eng.CacheStats()
		r.check(cs.Executed == len(pts), "regeneration executed %d points, the enumeration has %d", cs.Executed, len(pts))
		r.ops += cs.Executed
		for range paperWarmRegens {
			r.attempt(1)
			start := time.Now()
			warm, err := regenerate(ctx, eng, tr, paperUncached)
			r.warm = append(r.warm, time.Since(start))
			if err != nil {
				r.fail("warm regeneration: %v", err)
				continue
			}
			for name, text := range warm {
				r.check(text == cold[name], "warm regeneration of %s rendered different tables", name)
			}
		}
		r.engines = append(r.engines, eng.CacheStats())
		if i == 0 { // the results are deterministic: one pass's serve every check
			for j, p := range pts {
				if ref[j], err = eng.Simulate(ctx, p.options()); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil || !r.cfg.Trace {
		return err
	}
	r.probeAnalysis(suitePrograms(benchesOf(pts)))
	if err := r.layerSimulation(ctx, pts, ref, "", true); err != nil {
		return err
	}
	r.predict("ooo.run_share", 0.9)
	return nil
}

// regenerate renders every default experiment not in skip on eng, one
// span each, and returns each one's tables exactly as priexp prints them.
func regenerate(ctx context.Context, eng *prisim.Engine, tr *Tracer, skip map[string]bool) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range PaperExperiments {
		if skip[name] {
			continue
		}
		var tables []prisim.Table
		var err error
		tr.Do("prisim.ExperimentTables:"+name, -1, 0, func() {
			tables, err = eng.ExperimentTables(ctx, name, prisim.Options{})
		})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, t := range tables {
			sb.WriteString(t.String() + "\n")
		}
		out[name] = sb.String()
	}
	return out, nil
}

// digest is the SHA-256 of a full regeneration's output, in priexp's order.
func digest(out map[string]string) string {
	h := sha256.New()
	for _, name := range PaperExperiments {
		io.WriteString(h, out[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperPoints enumerates the distinct simulation points of the default
// experiments, mirroring the harness's experiment functions: Table 2
// (the baseline at both widths), Figure 1 (a subset of it), Figure 8's
// three policies, Figure 9's register sweep, and Figures 10-12's policy
// sets at both widths. Figure 2 runs the functional emulator only and has
// no timing points.
func paperPoints(b harness.Budget) (pts []simPoint) {
	seen := map[simPoint]bool{}
	add := func(bench string, width int, pol core.Policy, prs int) {
		if prs == 64 { // the Table 1 register file: the same point as the default
			prs = 0
		}
		p := simPoint{Bench: bench, Width: width, Policy: prisim.Policy(pol.Name()), PhysRegs: prs, FF: b.FastForward, Run: b.Run}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	widths := []int{4, 8}
	each := func(ws []workloads.Workload, pols []core.Policy, prs []int) {
		for _, width := range widths {
			for _, w := range ws {
				for _, pol := range pols {
					for _, n := range prs {
						add(w.Name, width, pol, n)
					}
				}
			}
		}
	}
	base, def := []core.Policy{core.PolicyBase}, []int{0}
	all := append([]core.Policy{core.PolicyBase}, core.AllPolicies...)
	for _, name := range PaperExperiments {
		switch name {
		case "table2":
			each(workloads.All(), base, def)
		case "fig1":
			each(workloads.Integer(), base, def)
		case "fig8":
			each(workloads.Integer(), []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER}, def)
		case "fig9":
			each(workloads.All(), base, harness.Fig9PRs)
		case "fig10":
			each(workloads.Integer(), all, def)
		case "fig11":
			each(workloads.Integer(), []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER}, def)
		case "fig12":
			each(workloads.FloatingPoint(), all, def)
		}
	}
	return pts
}
