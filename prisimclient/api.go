// Package prisimclient is the Go client for prisimd, the simulation
// service: the wire types of its HTTP/JSON API (shared with the server
// implementation in internal/service) and a Client that submits jobs,
// polls or streams their progress, and fetches results.
//
// The wire surface is versioned: every endpoint lives under /api/v1
// (DefaultBasePath). Wire type v1 additions over the original v0 shapes are
// strictly additive — CacheKey on requests, KernelVersion / CacheKey /
// ComputedBy on responses — so recorded v0 payloads keep decoding.
package prisimclient

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"prisim"
)

// Job kinds accepted by the service.
const (
	KindSimulate   = "simulate"   // one benchmark at one machine point
	KindExperiment = "experiment" // one of the paper's tables/figures
	KindProgram    = "program"    // a user-submitted assembly program
)

// JobState is a job's lifecycle state.
type JobState string

// The job lifecycle: Queued -> Running -> one of the terminal states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether a job in state s will never change state again.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the body of POST /api/v1/jobs.
type JobRequest struct {
	Kind string `json:"kind"` // KindSimulate or KindExperiment

	// Simulate parameters (Kind == KindSimulate).
	Benchmark         string `json:"benchmark,omitempty"`
	Width             int    `json:"width,omitempty"`
	Policy            string `json:"policy,omitempty"`
	PhysRegs          int    `json:"phys_regs,omitempty"`
	RenameInline      bool   `json:"rename_inline,omitempty"`
	DelayedAllocation bool   `json:"delayed_allocation,omitempty"`

	// Experiment name (Kind == KindExperiment), e.g. "fig8".
	Experiment string `json:"experiment,omitempty"`

	// Source is the PRISC-64 assembly text of a program job (Kind ==
	// KindProgram), transported base64-encoded by encoding/json. The server
	// assembles it inside a sandbox (source-size, instruction-budget, and
	// memory caps); assembly failures reject the submission with 422 and
	// positioned diagnostics. The machine-selection fields (Width, Policy,
	// PhysRegs, extension flags) apply as for simulate jobs; FastForward and
	// Run are taken verbatim, with Run 0 meaning "to completion" up to the
	// server's instruction cap.
	Source []byte `json:"source,omitempty"`

	// Per-run measurement budget; zero fields take the server defaults.
	FastForward uint64 `json:"fast_forward,omitempty"`
	Run         uint64 `json:"run,omitempty"`

	// CacheKey is the optional client-computed content hash of the point
	// (CacheKeyFor). When set on a simulate request, the server verifies it
	// against its own hash and rejects a mismatch with 409 — which is how
	// the fabric coordinator detects kernel-version skew on a worker before
	// trusting its results. Experiment requests must leave it empty.
	CacheKey string `json:"cache_key,omitempty"`
}

// Validate checks the request shape without consulting the engine (the
// server additionally validates names against its benchmark/experiment
// lists at submit time).
func (r JobRequest) Validate() error {
	switch r.Kind {
	case KindSimulate:
		if r.Benchmark == "" {
			return errors.New("simulate job requires a benchmark")
		}
		if r.Experiment != "" {
			return errors.New("simulate job must not set experiment")
		}
		if len(r.Source) > 0 {
			return errors.New("simulate job must not set source")
		}
	case KindExperiment:
		if r.Experiment == "" {
			return errors.New("experiment job requires an experiment name")
		}
		if r.Benchmark != "" {
			return errors.New("experiment job must not set benchmark")
		}
		if len(r.Source) > 0 {
			return errors.New("experiment job must not set source")
		}
	case KindProgram:
		if len(r.Source) == 0 {
			return errors.New("program job requires source")
		}
		if r.Benchmark != "" || r.Experiment != "" {
			return errors.New("program job must not set benchmark or experiment")
		}
	default:
		return fmt.Errorf("unknown job kind %q (want %q, %q, or %q)", r.Kind, KindSimulate, KindExperiment, KindProgram)
	}
	if r.Kind == KindExperiment && r.CacheKey != "" {
		return errors.New("experiment job must not set cache_key (experiments are not single content-addressed points)")
	}
	return nil
}

// CacheKeySchema names the content-hash schema CacheKeyFor implements; it
// is folded into the hash so a future schema change can never collide with
// v1 keys.
const CacheKeySchema = "prisim-point-v1"

// CacheKeyFor returns the SHA-256 content hash (hex) that addresses one
// simulate point: a deterministic digest of (kernel version, workload,
// policy, machine parameters, measurement budget). Because prilint's
// determinism analyzer guarantees a simulation is a pure function of
// exactly those inputs, the key is valid forever — it is how the fabric's
// durable store and cross-node coalescing identify results.
//
// Defaulted fields are normalized before hashing (width 0 -> 4, empty
// policy -> "base", zero budget -> prisim.DefaultFastForward/DefaultRun;
// PhysRegs 0 means "machine default" and hashes as 0), so a request and
// its explicit-default spelling share a key. Servers normalize a zero
// budget to their own configured default before hashing, which is why the
// fabric always dispatches points with an explicit budget.
func CacheKeyFor(kernelVersion string, r JobRequest) string {
	if r.FastForward == 0 {
		r.FastForward = prisim.DefaultFastForward
	}
	if r.Run == 0 {
		r.Run = prisim.DefaultRun
	}
	return contentKey(CacheKeySchema, kernelVersion, "bench="+r.Benchmark, r)
}

// ProgramCacheKeySchema names the content-hash schema CacheKeyForProgram
// implements; it is folded into the hash so program keys can never collide
// with simulate-point keys or a future schema revision.
const ProgramCacheKeySchema = "prisim-prog-v1"

// CacheKeyForProgram returns the SHA-256 content hash (hex) addressing one
// program run: kernel version, the assembled image's content hash (the
// asm.Program SHA-256, which excludes symbol names), the machine parameters,
// and the measurement budget taken verbatim. Source text is deliberately
// absent — two sources assembling to the same image (renamed labels, macro
// spellings, comments) share a key and therefore a stored result. Sandbox
// limits like the memory cap are excluded too: they bound resources, never
// change a successful run's outcome. Callers must pass the effective
// budget, with defaults already resolved, because unlike simulate points a
// program's Run 0 means "to completion" and the server caps it.
func CacheKeyForProgram(kernelVersion, imageSHA256 string, r JobRequest) string {
	return contentKey(ProgramCacheKeySchema, kernelVersion, "image="+imageSHA256, r)
}

// contentKey is the one formatter behind both key schemas: it normalizes
// the defaulted machine fields (width 0 -> 4, empty policy -> "base") and
// hashes the schema, kernel, subject line, machine, and budget as given.
func contentKey(schema, kernelVersion, subject string, r JobRequest) string {
	if r.Width == 0 {
		r.Width = 4
	}
	if r.Policy == "" {
		r.Policy = string(prisim.PolicyBase)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\nkernel=%s\n%s\nwidth=%d\npolicy=%s\nphys_regs=%d\nrename_inline=%t\ndelayed_alloc=%t\nfast_forward=%d\nrun=%d\n",
		schema, kernelVersion, subject, r.Width, r.Policy, r.PhysRegs,
		r.RenameInline, r.DelayedAllocation, r.FastForward, r.Run)
	return hex.EncodeToString(h.Sum(nil))
}

// Diagnostic is one positioned assembly error or static-analysis finding,
// carried by 422 responses to program submissions (see
// APIError.Diagnostics) and, for warnings, by accepted jobs and
// program-check responses. Line and Col are 1-based and rune-accurate;
// Excerpt is the offending source line. The Analyzer, Severity, and Addr
// fields are additive: assembler diagnostics leave them empty, priscan
// findings fill them (Severity "warning" or "error"; Addr the instruction
// address, which positions findings whose source line is unknown).
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
	Excerpt  string `json:"excerpt,omitempty"`
	Analyzer string `json:"analyzer,omitempty"`
	Severity string `json:"severity,omitempty"`
	Addr     uint64 `json:"addr,omitempty"`
}

// String renders "file:line:col: msg" (with the severity prefixed and the
// analyzer appended when the server set them) followed, when the server
// included the source excerpt, by the offending line with a caret under
// the column — the same shape the assembler and priscan print locally.
// Findings with no source position render by instruction address.
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&sb, "%s:%d:%d: ", d.File, d.Line, d.Col)
	} else {
		fmt.Fprintf(&sb, "%s: %#06x: ", d.File, d.Addr)
	}
	if d.Severity != "" {
		fmt.Fprintf(&sb, "%s: ", d.Severity)
	}
	sb.WriteString(d.Msg)
	if d.Analyzer != "" {
		fmt.Fprintf(&sb, " [%s]", d.Analyzer)
	}
	if d.Excerpt != "" {
		display := strings.ReplaceAll(d.Excerpt, "\t", " ")
		fmt.Fprintf(&sb, "\n    %s", display)
		if d.Col >= 1 && d.Col <= len([]rune(display))+1 {
			fmt.Fprintf(&sb, "\n    %s^", strings.Repeat(" ", d.Col-1))
		}
	}
	return sb.String()
}

// ProgramCheckRequest is the body of POST /api/v1/programs: assemble-check a
// source without running it.
type ProgramCheckRequest struct {
	Source []byte `json:"source"`
}

// ProgramInfo describes a successfully assembled program. SHA256 is the
// image content hash that CacheKeyForProgram folds into program cache
// keys. Warnings and Inlinability are additive v1 fields filled by the
// priscan static analysis that runs before a program is accepted: warnings
// never block a program (provable errors reject it with 422 instead), and
// the inlinability summary is the static analogue of the simulator's
// measured PRI inlining rate.
type ProgramInfo struct {
	SHA256       string        `json:"sha256"`
	Entry        uint64        `json:"entry"`
	CodeWords    int           `json:"code_words"`
	DataSegments int           `json:"data_segments"`
	DataBytes    int           `json:"data_bytes"`
	Warnings     []Diagnostic  `json:"warnings,omitempty"`
	Inlinability *Inlinability `json:"inlinability,omitempty"`
}

// Inlinability is the static narrowness summary priscan computes for a
// program: of its register defs, how many provably produce values fitting
// the PRI inline width (narrow), provably do not (wide), or are unknown.
// WeightedFrac weights each def by an estimate of its execution frequency
// from the loop trip-count analysis.
type Inlinability struct {
	NarrowBits   int     `json:"narrow_bits"`
	Defs         int     `json:"defs"`
	Narrow       int     `json:"narrow"`
	Wide         int     `json:"wide"`
	Unknown      int     `json:"unknown"`
	FPDefs       int     `json:"fp_defs"`
	StaticFrac   float64 `json:"static_frac"`
	WeightedFrac float64 `json:"weighted_frac"`
}

// Options converts the request's simulation parameters to engine options.
func (r JobRequest) Options() prisim.Options {
	return prisim.Options{
		Benchmark:         r.Benchmark,
		Width:             r.Width,
		Policy:            prisim.Policy(r.Policy),
		PhysRegs:          r.PhysRegs,
		RenameInline:      r.RenameInline,
		DelayedAllocation: r.DelayedAllocation,
		FastForward:       r.FastForward,
		Run:               r.Run,
	}
}

// Progress is a job's run-completion counter: Done of Total simulation
// points requested so far have resolved (Total grows as an experiment's
// matrix is submitted).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Job is the service's view of one submitted job, returned by the submit,
// status, list, and cancel endpoints.
type Job struct {
	ID       string     `json:"id"`
	Request  JobRequest `json:"request"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Progress Progress   `json:"progress"`

	// Started and Finished are the zero time until the job reaches the
	// corresponding state.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`

	// Content-addressing metadata (v1 additions). KernelVersion is the
	// server's build; CacheKey is the server-computed content hash of a
	// simulate point (empty for experiments); ComputedBy identifies the
	// node whose engine produced — or, for a durable-store hit, originally
	// produced — the result.
	KernelVersion string `json:"kernel_version,omitempty"`
	CacheKey      string `json:"cache_key,omitempty"`
	ComputedBy    string `json:"computed_by,omitempty"`

	// Warnings are the priscan static-analysis findings recorded when a
	// program job was accepted (additive v1 field; always empty for
	// simulate and experiment jobs). Provable errors reject the submission
	// with 422 instead, so an accepted job carries warnings only.
	Warnings []Diagnostic `json:"warnings,omitempty"`
}

// JobResult is the body of GET /api/v1/jobs/{id}/result: exactly one of
// Result (simulate and program jobs) or Tables (experiment jobs) is set.
// Program jobs additionally carry the program's console output.
type JobResult struct {
	ID     string         `json:"id"`
	Result *prisim.Result `json:"result,omitempty"`
	Tables []prisim.Table `json:"tables,omitempty"`
	Output []byte         `json:"output,omitempty"` // program console output (putc)

	// Content-addressing metadata (v1 additions); see Job.
	KernelVersion string `json:"kernel_version,omitempty"`
	CacheKey      string `json:"cache_key,omitempty"`
	ComputedBy    string `json:"computed_by,omitempty"`
}

// Text renders an experiment result as the aligned fixed-width tables the
// priexp CLI prints (empty for simulate jobs).
func (r JobResult) Text() string {
	var out string
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	return out
}

// Event is one SSE message on GET /api/v1/jobs/{id}/events.
type Event struct {
	Type     string   `json:"type"` // "state" or "progress"
	JobID    string   `json:"job_id"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
}

// Matrix is an experiment matrix for the fabric coordinator (the body of
// POST /api/v1/fabric/matrices): the cross product of Benchmarks x Policies
// x Widths x PhysRegs at one measurement budget. The coordinator expands it
// into content-addressed simulate points, serves warm points from its
// durable store, and shards cold points across registered workers.
type Matrix struct {
	Benchmarks []string `json:"benchmarks"`
	Policies   []string `json:"policies"`
	Widths     []int    `json:"widths,omitempty"`    // empty = [4]
	PhysRegs   []int    `json:"phys_regs,omitempty"` // empty = [0] (machine default)

	// Per-run measurement budget; zero fields take the universal defaults
	// (prisim.DefaultFastForward / prisim.DefaultRun), never a node-local
	// override, so a matrix names the same points on every coordinator.
	FastForward uint64 `json:"fast_forward,omitempty"`
	Run         uint64 `json:"run,omitempty"`
}

// Validate checks the matrix's shape without consulting the engine (the
// coordinator additionally validates benchmark and policy names at submit).
func (m Matrix) Validate() error {
	if len(m.Benchmarks) == 0 {
		return errors.New("matrix requires at least one benchmark")
	}
	if len(m.Policies) == 0 {
		return errors.New("matrix requires at least one policy")
	}
	for _, w := range m.Widths {
		if w != 4 && w != 8 {
			return fmt.Errorf("matrix width must be 4 or 8, got %d", w)
		}
	}
	for _, n := range m.PhysRegs {
		if n != 0 && n < 32 {
			return fmt.Errorf("matrix phys_regs must be 0 (machine default) or at least 32, got %d", n)
		}
	}
	for name, vals := range map[string][]string{"benchmarks": m.Benchmarks, "policies": m.Policies} {
		seen := make(map[string]bool, len(vals))
		for _, v := range vals {
			if v == "" {
				return fmt.Errorf("empty %s entry", name)
			}
			if seen[v] {
				return fmt.Errorf("duplicate %s entry %q", name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// MatrixStatus is a matrix's lifecycle view, returned by the fabric submit,
// status, and list endpoints. Points = StoreHits + Executed + Coalesced
// once the matrix is done: every point was served from the durable store,
// computed for this matrix, or joined another matrix's in-flight point.
type MatrixStatus struct {
	ID            string   `json:"id"` // content-derived: identical specs share an ID
	Spec          Matrix   `json:"spec"`
	State         JobState `json:"state"`
	Error         string   `json:"error,omitempty"`
	Points        int      `json:"points"`
	Done          int      `json:"done"`
	StoreHits     int      `json:"store_hits"`
	Executed      int      `json:"executed"`
	Coalesced     int      `json:"coalesced"`
	KernelVersion string   `json:"kernel_version"`

	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
}

// PointResult is one resolved point of a finished matrix.
type PointResult struct {
	CacheKey   string        `json:"cache_key"`
	Request    JobRequest    `json:"request"`
	Result     prisim.Result `json:"result"`
	ComputedBy string        `json:"computed_by,omitempty"`
}

// MatrixResult is the body of GET /api/v1/fabric/matrices/{id}/result:
// the assembled experiment tables plus every point's result and provenance,
// so clients can re-derive the content addressing end to end.
type MatrixResult struct {
	ID            string         `json:"id"`
	KernelVersion string         `json:"kernel_version"`
	Tables        []prisim.Table `json:"tables"`
	Points        []PointResult  `json:"points,omitempty"`
}

// Text renders the matrix result as aligned fixed-width tables.
func (r MatrixResult) Text() string {
	var out string
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	return out
}

// WorkerInfo is the coordinator's view of one registered worker daemon.
type WorkerInfo struct {
	ID         string    `json:"id"`
	URL        string    `json:"url"`
	Version    string    `json:"version"`
	Healthy    bool      `json:"healthy"`
	InFlight   int       `json:"in_flight"`
	Completed  uint64    `json:"completed"`
	Failures   uint64    `json:"failures"`
	Registered time.Time `json:"registered"`
	LastError  string    `json:"last_error,omitempty"`
}

// RegisterWorkerRequest is the body of POST /api/v1/fabric/workers. URL is
// the worker daemon's externally reachable base URL; the coordinator probes
// it and refuses registration on kernel-version skew.
type RegisterWorkerRequest struct {
	URL string `json:"url"`
}

// apiError is the JSON error body every non-2xx response carries; 422
// responses to program submissions additionally carry the collected
// assembly diagnostics.
type apiError struct {
	Error       string       `json:"error"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}
