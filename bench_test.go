package prisim

// Benchmarks for the paper's evaluation and the simulator itself.
// BenchmarkExperiments regenerates every table, figure and ablation end to
// end (simulating every benchmark x machine x policy point it needs) at a
// reduced per-run budget so the harness itself is what is being measured;
// use cmd/priexp for full-budget reproduction output.
//
//	go test -bench=. -benchmem
//
// Shape notes are in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// experimentRows is each experiment's row count per table, in table order:
// Table 1's 15 machine parameters, then one row per workload (27, or 13
// integer, or 14 floating-point) plus an average row in Figures 10 and 12.
var experimentRows = map[string][]int{
	"table1": {15}, "table2": {27}, "fig1": {13}, "fig2": {13, 14}, "fig8": {13},
	"fig9": {27, 27}, "fig10": {14, 14}, "fig11": {13, 13}, "fig12": {15, 15},
	"ablation-inline": {13}, "ablation-mem": {13}, "ablation-delayed": {13},
	"ablation-mshr": {13}, "ablation-prefetch": {13},
}

// BenchmarkExperiments regenerates each experiment on a fresh Engine (cold
// cache, GOMAXPROCS workers) every iteration, running every (benchmark,
// machine, policy) cell it needs at a 2k + 6k budget.
func BenchmarkExperiments(b *testing.B) {
	ctx := context.Background()
	for _, name := range ExperimentNames() {
		want, ok := experimentRows[name]
		if !ok {
			b.Fatalf("no row counts recorded for experiment %q", name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := NewEngine(WithBudget(2000, 6000)).ExperimentTables(ctx, name, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) != len(want) {
					b.Fatalf("%d tables, want %d", len(tables), len(want))
				}
				for j, t := range tables {
					if len(t.Rows) != want[j] {
						b.Fatalf("table %d: %d rows, want %d", j, len(t.Rows), want[j])
					}
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// instructions per wall-clock second) on the baseline 4-wide machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("gzip")
	prog := w.Build(0)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		p := ooo.New(ooo.Width4(), prog)
		total += p.Run(5000)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSchemeOverhead compares the simulator's own cost across release
// policies (the PRI machinery's bookkeeping is part of what this library
// implements, so its overhead is worth tracking).
func BenchmarkSchemeOverhead(b *testing.B) {
	w, _ := workloads.ByName("bzip2")
	prog := w.Build(0)
	for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := ooo.New(ooo.Width4().WithPolicy(pol), prog)
				p.Run(5000)
			}
		})
	}
}
