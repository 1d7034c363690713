// Package analysis — "priscan" — statically checks assembled PRISC-64
// program images before they are simulated. It builds a control-flow graph
// over the decoded code segment, runs a worklist constant-range
// (interval) propagation, and layers five analyzers on top, in the
// prilint mold:
//
//   - reachability: dead blocks, code after unconditional jumps, control
//     that can fall off the end of the code segment
//   - defuse: registers read before any write along some path, register
//     writes whose value is never read
//   - membounds: constant-propagated loads/stores provably outside the
//     image's code/data/stack regions, misaligned constant addresses
//   - loopbudget: back-edge detection with a trip-count lattice; loops
//     with no exit edge are flagged as run-cap burners
//   - narrowness: classifies every def as provably fitting the paper's
//     inline-in-map-entry width or not, producing a per-program static
//     inlinability summary comparable against the simulator's measured
//     PRI inlining rate
//
// Soundness stance: the analysis over-approximates control flow (indirect
// jumps may go to any labeled block or call return site) and
// under-approximates value knowledge, so findings are warnings by
// default; only provable errors — a reachable store whose every possible
// address lies outside the image — carry SevError and justify rejecting a
// program before dispatch.
//
//prisim:deterministic
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"prisim/internal/asm"
	"prisim/internal/core"
)

// Severity grades a finding. Warnings describe programs that run with
// well-defined (if probably unintended) behavior; errors are provable
// defects that justify rejecting the program before simulation.
type Severity uint8

const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Finding is one analyzer result, positioned by code-word index.
type Finding struct {
	Analyzer string
	Severity Severity
	Index    int    // code-word index; -1 for whole-program findings
	Addr     uint64 // instruction address (0 when Index < 0)
	Msg      string
}

// Analyzer is one named check, mirroring the prilint framework shape.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*pass)
}

// All returns the analyzers in execution order.
func All() []*Analyzer {
	return []*Analyzer{
		reachAnalyzer,
		defuseAnalyzer,
		memboundsAnalyzer,
		loopbudgetAnalyzer,
		narrowAnalyzer,
	}
}

// Options parameterizes one analysis.
type Options struct {
	// NarrowBits is the inline-width the narrowness analyzer classifies
	// against; 0 means the core default (core.DefaultParams().IntNarrowBits).
	NarrowBits int
	// StackWindow is how many bytes below the initial stack pointer count
	// as valid stack for membounds; 0 means 1 MiB.
	StackWindow uint64
}

const defaultStackWindow = 1 << 20

func (o Options) withDefaults() Options {
	if o.NarrowBits == 0 {
		o.NarrowBits = core.DefaultParams().IntNarrowBits
	}
	if o.StackWindow == 0 {
		o.StackWindow = defaultStackWindow
	}
	return o
}

// Inlinability is the static narrowness summary: how many defs provably
// produce values that fit the PRI inline width.
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

// TripCount is the loopbudget lattice for how often a loop body runs.
type TripCount uint8

const (
	TripUnknown TripCount = iota
	TripBounded
	TripInfinite // no exit edge: runs until the run cap
)

// Loop describes one natural loop (or irreducible cycle) found by
// loopbudget.
type Loop struct {
	HeadAddr uint64
	Blocks   int
	Insts    int
	Trip     TripCount
	Trips    uint64 // iteration count when Trip == TripBounded
}

// Report is the result of analyzing one program.
type Report struct {
	Findings     []Finding
	Inlinability Inlinability
	Loops        []Loop
}

// pass is the shared state handed to each analyzer's run function.
type pass struct {
	prog            *asm.Program
	opts            Options
	cfg             *graph
	reachable       []bool // per block
	consts          *constFacts
	loops           []Loop
	loopOf          [][]int // per block: indices into loops containing it
	current         *Analyzer
	report          func(Finding)
	setInlinability func(Inlinability)
}

func (p *pass) reportf(sev Severity, index int, format string, args ...any) {
	f := Finding{Analyzer: p.current.Name, Severity: sev, Index: index, Msg: fmt.Sprintf(format, args...)}
	if index >= 0 {
		f.Addr = p.prog.CodeBase + 4*uint64(index)
	}
	p.report(f)
}

// Analyze runs every analyzer over prog and returns the combined report.
// Findings are ordered by code position, then analyzer, then message.
func Analyze(prog *asm.Program, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{}
	p := &pass{
		prog: prog,
		opts: opts,
		cfg:  buildCFG(prog),
		report: func(f Finding) {
			rep.Findings = append(rep.Findings, f)
		},
		setInlinability: func(s Inlinability) { rep.Inlinability = s },
	}
	p.reachable = p.cfg.reach()
	p.consts = solveConst(p.cfg, p.reachable, opts)
	for _, a := range All() {
		p.current = a
		a.run(p)
	}
	rep.Loops = p.loops
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
	return rep
}

// Diagnostics positions the report's findings against the assembly source
// and filters the ones suppressed by ";lint:ignore analyzer reason"
// comments (same-line or line-above, reason mandatory — the prilint
// convention with assembly comment characters). src may be empty: then no
// excerpts are attached and no suppressions apply. A finding in an image
// with no recorded positions (a builder-generated program) keeps Line 0
// and renders by address instead.
func (r *Report) Diagnostics(prog *asm.Program, file, src string) []asm.Diagnostic {
	var srcLines []string
	if src != "" {
		srcLines = strings.Split(src, "\n")
	}
	sup := parseSuppressions(srcLines)
	var out []asm.Diagnostic
	for _, f := range r.Findings {
		d := asm.Diagnostic{
			File:     file,
			Msg:      f.Msg,
			Analyzer: f.Analyzer,
			Severity: f.Severity.String(),
			Addr:     f.Addr,
		}
		if f.Index >= 0 && f.Index < len(prog.Lines) {
			pos := prog.Lines[f.Index]
			d.Line, d.Col = pos.Line, pos.Col
			if d.Line >= 1 && d.Line <= len(srcLines) {
				d.Excerpt = strings.TrimRight(srcLines[d.Line-1], " \t\r")
			}
		}
		if d.Line > 0 && sup.matches(d.Line, f.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// suppressions maps source line -> analyzer names suppressed there.
type suppressions map[int][]string

// parseSuppressions scans for "lint:ignore name1,name2 reason" directives
// inside ';' or '#' comments. A directive without a reason is ignored
// (and so suppresses nothing), matching prilint. The directive covers its
// own line and the line below.
func parseSuppressions(srcLines []string) suppressions {
	sup := suppressions{}
	for i, line := range srcLines {
		ci := strings.IndexAny(line, ";#")
		if ci < 0 {
			continue
		}
		comment := strings.TrimSpace(line[ci+1:])
		if !strings.HasPrefix(comment, "lint:ignore") {
			continue
		}
		fields := strings.Fields(comment)
		// fields[0] is "lint:ignore", fields[1] the analyzer list; a
		// reason (anything after) is mandatory.
		if len(fields) < 3 {
			continue
		}
		names := strings.Split(fields[1], ",")
		lineNo := i + 1
		sup[lineNo] = append(sup[lineNo], names...)
		sup[lineNo+1] = append(sup[lineNo+1], names...)
	}
	return sup
}

func (s suppressions) matches(line int, analyzer string) bool {
	for _, name := range s[line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}

// ExitCode maps lint output to the shared CLI convention: 0 clean, 1 when
// warnings were reported and -Werror is set, 2 when any error was found.
func ExitCode(diags []asm.Diagnostic, werror bool) int {
	code := 0
	for _, d := range diags {
		if d.Severity == SevError.String() {
			return 2
		}
		if werror {
			code = 1
		}
	}
	return code
}
