package ooo

import (
	"testing"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/workloads"
)

// Kernel microbenchmarks: steady-state cost of the simulation loop itself.
// Pipelines are constructed outside the timed region (and replaced off the
// clock when a program halts), so ns/op and allocs/op describe the per-cycle
// hot path, not setup. Run with -benchmem; the recycling kernel should hold
// steady-state allocs near zero.

const benchChunk = 5000 // committed instructions per iteration

// benchRun drives one pipeline configuration for b.N*benchChunk instructions.
func benchRun(b *testing.B, mk func() *Pipeline) {
	b.Helper()
	p := mk()
	p.FastForward(2000) // past init code, caches warm
	b.ReportAllocs()
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		n := p.Run(benchChunk)
		total += n
		if n < benchChunk { // program halted: replace off the clock
			b.StopTimer()
			p = mk()
			p.FastForward(2000)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(total)/float64(b.N), "instr/op")
}

func benchWorkload(b *testing.B, name string, cfg Config) {
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	prog := w.Build(0)
	benchRun(b, func() *Pipeline { return New(cfg, prog) })
}

// BenchmarkKernelSteadyState is the headline number: committed instructions
// per second of wall clock on the baseline 4-wide machine, past warmup.
func BenchmarkKernelSteadyState(b *testing.B) {
	benchWorkload(b, "gzip", Width4())
}

// BenchmarkKernelFig8Mix cycles the paper's Figure 8 policy mix (base, PRI,
// PRI+ER) over integer workloads — the run matrix the experiment harness
// spends almost all of its time in.
func BenchmarkKernelFig8Mix(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
		b.Run(pol.Name(), func(b *testing.B) {
			benchWorkload(b, "mcf", Width4().WithPolicy(pol))
		})
	}
}

// BenchmarkKernelSquashHeavy stresses recovery: the data-dependent branch
// pattern of the shared test program defeats the predictor often, so squash,
// rollback, and (with recycling) the free-list return path dominate.
func BenchmarkKernelSquashHeavy(b *testing.B) {
	prog := buildTest(b)
	benchRun(b, func() *Pipeline { return New(Width4(), prog) })
}

// BenchmarkKernelMemBound exercises the event path for long-latency loads
// (far-future completions land in the wheel's overflow list).
func BenchmarkKernelMemBound(b *testing.B) {
	benchWorkload(b, "mcf", Width8())
}

// BenchmarkFastForward measures the functional fast-forward — emulator,
// branch predictor and cache hierarchy, one pass per instruction — that
// precedes every measurement. Each iteration fast-forwards a fresh pipeline
// of each workload by 200k instructions; construction is off the clock.
func BenchmarkFastForward(b *testing.B) {
	const ff = 200_000
	var progs []*asm.Program
	for _, name := range []string{"gzip", "mcf", "swim", "equake"} {
		w, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %q", name)
		}
		progs = append(progs, w.Build(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			b.StopTimer()
			p := New(Width4(), prog)
			b.StartTimer()
			total += p.FastForward(ff)
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(total)/float64(b.N), "instr/op")
}
