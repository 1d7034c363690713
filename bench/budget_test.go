package bench

import (
	"testing"

	"prisim"
	"prisim/internal/emu"
	"prisim/internal/workloads"
)

// maxFastForward bounds every fast-forward the benchmark requests.
const maxFastForward = 400_000

// TestWorkloadsOutlastBudgets guards the benchmark against a known
// defect: a fast-forward that runs past a workload's HALT leaves the timed
// pipeline nothing to commit, and its watchdog panics the whole process
// (see README.md). Every workload must execute at least the longest
// fast-forward plus the longest timed run the benchmark asks for before it
// halts. facerec, which halts after 528,026 instructions, is the tightest.
func TestWorkloadsOutlastBudgets(t *testing.T) {
	for pass := range 4 * warmupFFStrata {
		if ff := warmupFF(1, pass); ff < 200_000 || ff >= maxFastForward {
			t.Fatalf("warmup pass %d fast-forwards %d, outside [200k, 400k)", pass, ff)
		}
	}
	need := uint64(maxFastForward + max(prisim.DefaultRun, warmupRun))
	for _, w := range workloads.All() {
		m := emu.New(w.Build(0))
		if n := m.Run(need); n < need {
			t.Errorf("%s halts after %d instructions, before the %d the benchmark may need", w.Name, n, need)
		}
	}
}
