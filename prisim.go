// Package prisim is the public facade over the physical register inlining
// reproduction: a cycle-level out-of-order PRISC-64 simulator whose rename
// stage implements the ISCA 2004 "Physical Register Inlining" scheme, the
// prior-work early-release scheme, and their combination, plus the
// SPEC2000-like synthetic workload suite and the experiment harness that
// regenerates the paper's tables and figures.
//
// The entry point is a long-lived, concurrency-safe Engine:
//
//	eng := prisim.NewEngine()
//	res, err := eng.Simulate(ctx, prisim.Options{
//		Benchmark: "mcf",
//		Width:     4,
//		Policy:    prisim.PolicyPRI,
//	})
//	fmt.Printf("IPC %.3f\n", res.IPC)
//
// An Engine memoizes timing runs and executes experiment run matrices on a
// bounded worker pool (see WithParallelism), deduplicates concurrent
// requests for the same simulation point, honours context cancellation, and
// reports failures with errors.Is-able sentinels (ErrUnknownBenchmark,
// ErrUnknownPolicy, ErrUnknownExperiment, ErrInvalidOptions).
package prisim

import (
	"io"

	"prisim/internal/core"
	"prisim/internal/workloads"
)

// Policy names a register release scheme.
type Policy string

// The eight schemes evaluated in the paper.
const (
	PolicyBase         Policy = "base"
	PolicyER           Policy = "er"
	PolicyPRI          Policy = "pri-rc-ckpt" // the paper's headline PRI configuration
	PolicyPRIRcLazy    Policy = "pri-rc-lazy"
	PolicyPRIIdealCkpt Policy = "pri-ideal-ckpt"
	PolicyPRIIdealLazy Policy = "pri-ideal-lazy"
	PolicyPRIPlusER    Policy = "pri+er"
	PolicyInfinite     Policy = "infpr"
)

var policyMap = map[Policy]core.Policy{
	PolicyBase:         core.PolicyBase,
	PolicyER:           core.PolicyER,
	PolicyPRI:          core.PolicyPRIRcCkpt,
	PolicyPRIRcLazy:    core.PolicyPRIRcLazy,
	PolicyPRIIdealCkpt: core.PolicyPRIIdealCkpt,
	PolicyPRIIdealLazy: core.PolicyPRIIdealLazy,
	PolicyPRIPlusER:    core.PolicyPRIPlusER,
	PolicyInfinite:     core.PolicyInfinite,
}

// Policies lists every available policy name.
func Policies() []Policy {
	return []Policy{PolicyBase, PolicyER, PolicyPRI, PolicyPRIRcLazy,
		PolicyPRIIdealCkpt, PolicyPRIIdealLazy, PolicyPRIPlusER, PolicyInfinite}
}

// IsPRI reports whether p is one of the physical-register-inlining schemes
// (for which Result's PRI activity counters are meaningful).
func (p Policy) IsPRI() bool {
	cp, ok := policyMap[p]
	return ok && cp.PRI
}

// The paper-methodology per-run measurement budget defaults: every zero
// FastForward/Run field — in Options, in service requests, and in fabric
// matrices — resolves to these values. They are part of the content-hash
// schema (prisimclient.CacheKeyFor), so they are exported constants rather
// than tunables.
const (
	DefaultFastForward = 20_000
	DefaultRun         = 80_000
)

// Options selects a simulation point.
type Options struct {
	Benchmark string // a workload name (see Benchmarks)
	Width     int    // 4 or 8 (Table 1 machines); default 4
	Policy    Policy // default PolicyBase
	PhysRegs  int    // per-class physical registers; 0 = Table 1 default (64)

	FastForward uint64 // instructions skipped before measurement (default 20k)
	Run         uint64 // instructions measured (default 80k)

	// RenameInline enables the paper's Section 6 rename-time inlining
	// extension (narrow load-immediates never allocate a register).
	RenameInline bool
	// DelayedAllocation enables the Section 6 virtual-physical extension
	// (registers bind at writeback instead of rename).
	DelayedAllocation bool

	// MemLimit, when nonzero, caps the simulated machine's resident memory
	// footprint in bytes for SimulateProgram runs (the service's program
	// sandbox); exceeding it fails the run with an error matching
	// errors.Is(err, ErrMemLimit). Ignored by Simulate: the named workloads
	// are compiled in and have known footprints.
	MemLimit uint64

	// MachineJSON, when non-empty, overrides the Width-selected machine
	// with a JSON configuration (the format MachineJSON produces); Policy,
	// PhysRegs, and the extension flags still apply on top. The Engine's
	// cache is keyed by the resulting machine, so a custom machine is
	// memoized like any other point.
	MachineJSON []byte
	// PipeView, when non-nil, receives a gem5 O3PipeView-format pipeline
	// trace of the run. Traced runs bypass the memoization cache so the
	// trace is always produced.
	PipeView io.Writer
}

// Result summarizes one simulation.
type Result struct {
	Benchmark string
	Machine   string // machine configuration name ("4wide" / "8wide")
	IntPRs    int    // integer physical register file size simulated
	FPPRs     int    // floating-point physical register file size simulated

	IPC       float64
	Cycles    uint64
	Committed uint64

	IntOccupancy float64 // mean allocated integer physical registers
	FPOccupancy  float64

	// Register lifetime phases (cycles, averaged per released register of
	// the benchmark's dominant class).
	AllocToWrite, WriteToRead, ReadToRelease float64

	InlineFraction float64 // source operands served from inlined map entries
	MispredictRate float64
	BranchResolved uint64
	DL1MissRate    float64
	L2MissRate     float64
	Replays        uint64 // scheduler latency mis-speculation replays

	// PRI activity counters for the benchmark's dominant register class
	// (zero under non-PRI policies; see Policy.IsPRI).
	InlinedResults uint64
	WAWSuppressed  uint64
	DeferredFrees  uint64
	EarlyFrees     uint64
}

// Benchmark describes one available workload.
type Benchmark struct {
	Name        string
	FP          bool
	Description string
	PaperIPC4   float64
}

// Benchmarks lists the 27 available workloads.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, w := range workloads.All() {
		out = append(out, Benchmark{
			Name:        w.Name,
			FP:          w.Class == workloads.FP,
			Description: w.Description,
			PaperIPC4:   w.PaperIPC4,
		})
	}
	return out
}
