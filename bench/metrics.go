package bench

import (
	"math"
	"sort"
)

// MetricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound. BENCHMARK.json lists
// the same definitions (a test keeps the two in step).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. What a "pass", an "op", a cold request
// and a warm request are differs per workload; README.md defines them.
// The bounds are as wide as the host's run-to-run drift requires (see
// README.md); the cold tail latency is reported but not gated.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"warm_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// PerLayer are the single-layer metrics a traced run reports, measured on
// every workload from that workload's own inputs.
var PerLayer = []MetricDef{
	{"workloads.build_ms", "ms", "lower", 0},
	{"asm_analysis.analyze_ms", "ms", "lower", 0},
	{"asm_analysis.rejected", "count", "lower", 0},
	{"emu.ns_per_instr", "ns", "lower", 0},
	{"emu.instrs", "count", "lower", 0},
	{"bpred.ns_per_branch", "ns", "lower", 0},
	{"bpred.branches", "count", "lower", 0},
	{"bpred.mispredict_ratio", "ratio", "lower", 0},
	{"memsys.ns_per_access", "ns", "lower", 0},
	{"memsys.accesses", "count", "lower", 0},
	{"memsys.dl1_miss_ratio", "ratio", "lower", 0},
	{"memsys.l2_miss_ratio", "ratio", "lower", 0},
	{"core.ns_per_rename", "ns", "lower", 0},
	{"core.renames", "count", "lower", 0},
	{"core.inline_ratio", "ratio", "higher", 0},
	{"core.checkpoints", "count", "lower", 0},
	{"ooo.run_s", "s", "lower", 0},
	{"ooo.run_ns_per_cycle", "ns", "lower", 0},
	{"ooo.run_ns_per_instr", "ns", "lower", 0},
	{"ooo.cycles", "count", "lower", 0},
	{"ooo.cpi", "cycles/instr", "lower", 0},
	{"ooo.rename_stall_regs_frac", "ratio", "lower", 0},
	{"ooo.run_share", "ratio", "lower", 0},
	{"ooo.ff_s", "s", "lower", 0},
	{"ooo.ff_ns_per_instr", "ns", "lower", 0},
	{"ooo.ff_share", "ratio", "lower", 0},
	{"ooo.ff_layers_ratio", "ratio", "lower", 0},
	{"ooo.new_ms", "ms", "lower", 0},
	{"ooo.capture_ms", "ms", "lower", 0},
	{"ooo.clone_ms", "ms", "lower", 0},
	{"harness.executed", "count", "lower", 0},
	{"harness.hits", "count", "higher", 0},
	{"harness.coalesced", "count", "higher", 0},
	{"harness.snapshot_builds", "count", "lower", 0},
	{"harness.snapshot_hit_ratio", "ratio", "higher", 0},
	{"harness.snapshot_mb", "MB", "lower", 0},
	{"prisim.simulate_ms", "ms", "lower", 0},
	{"fabric.store_get_us", "us", "lower", 0},
	{"fabric.store_put_us", "us", "lower", 0},
	{"fabric.store_open_ms", "ms", "lower", 0},
	{"prisimclient.cachekey_us", "us", "lower", 0},
	{"prisimclient.json_us", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method): a metric's spread, judged against its bound, is the distance
// between the outer two as a share of the middle one. It needs at least
// two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	const n = 4
	m := ld + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		cut[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sortedCopy(xs)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile picks the highest candidate percentile with at least ten
// of n samples ranked beyond it. With fewer than twenty samples no
// candidate qualifies and the tail is the maximum, reported as 100.
func TailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 100
}

// Percentile returns the nearest-rank p-th percentile of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sortedCopy(xs)
	return d[nearestRank(p, len(d))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p/100 rounding up
	return max(1, min(r, n))
}

func sortedCopy(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}
