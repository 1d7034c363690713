package analysis_test

import (
	"strings"
	"testing"

	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
)

// analyzeSrc assembles src and returns the positioned diagnostics.
func analyzeSrc(t *testing.T, src string) []asm.Diagnostic {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return analysis.Analyze(prog, analysis.Options{}).Diagnostics(prog, "test.s", src)
}

// TestSuppression pins the ;lint:ignore contract: the directive covers
// its own line and the line below, needs a mandatory reason, and matches
// by analyzer name or "all".
func TestSuppression(t *testing.T) {
	const base = "  add  r3, r1, r0\n  stq  r3, 0(sp)\n  halt\n"
	cases := []struct {
		name string
		src  string
		want int // defuse findings surviving
	}{
		{"unsuppressed", ".text\nmain:\n" + base, 1},
		{"same line", ".text\nmain:\n  add  r3, r1, r0 ;lint:ignore defuse r1 is zero on purpose\n  stq  r3, 0(sp)\n  halt\n", 0},
		{"line above", ".text\nmain:\n  ;lint:ignore defuse r1 is zero on purpose\n  add  r3, r1, r0\n  stq  r3, 0(sp)\n  halt\n", 0},
		{"all matches", ".text\nmain:\n  add  r3, r1, r0 ;lint:ignore all r1 is zero on purpose\n  stq  r3, 0(sp)\n  halt\n", 0},
		{"wrong analyzer", ".text\nmain:\n  add  r3, r1, r0 ;lint:ignore membounds wrong name\n  stq  r3, 0(sp)\n  halt\n", 1},
		{"no reason is void", ".text\nmain:\n  add  r3, r1, r0 ;lint:ignore defuse\n  stq  r3, 0(sp)\n  halt\n", 1},
		{"hash comment", ".text\nmain:\n  add  r3, r1, r0 #lint:ignore defuse r1 is zero on purpose\n  stq  r3, 0(sp)\n  halt\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := 0
			for _, d := range analyzeSrc(t, tc.src) {
				if d.Analyzer == "defuse" {
					got++
				}
			}
			if got != tc.want {
				t.Errorf("defuse findings = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestExitCode pins the shared CLI convention: 0 clean, 1 warnings under
// -Werror, 2 on any error regardless of -Werror.
func TestExitCode(t *testing.T) {
	warn := asm.Diagnostic{Severity: "warning"}
	errd := asm.Diagnostic{Severity: "error"}
	cases := []struct {
		diags  []asm.Diagnostic
		werror bool
		want   int
	}{
		{nil, false, 0},
		{nil, true, 0},
		{[]asm.Diagnostic{warn}, false, 0},
		{[]asm.Diagnostic{warn}, true, 1},
		{[]asm.Diagnostic{errd}, false, 2},
		{[]asm.Diagnostic{warn, errd}, true, 2},
	}
	for i, tc := range cases {
		if got := analysis.ExitCode(tc.diags, tc.werror); got != tc.want {
			t.Errorf("case %d: ExitCode = %d, want %d", i, got, tc.want)
		}
	}
}

// TestDiagRendering pins the two positioning modes: source-positioned
// findings render file:line:col with a caret, builder images (no source
// positions) render by instruction address.
func TestDiagRendering(t *testing.T) {
	positioned := asm.Diagnostic{
		File: "p.s", Line: 3, Col: 3, Msg: "value written to r5 is never read",
		Excerpt: "  li r5, 7", Analyzer: "defuse", Severity: "warning",
	}
	got := positioned.String()
	for _, wantPart := range []string{"p.s:3:3: warning: value written to r5 is never read [defuse]", "  ^"} {
		if !strings.Contains(got, wantPart) {
			t.Errorf("rendering %q lacks %q", got, wantPart)
		}
	}
	byAddr := asm.Diagnostic{
		File: "workload:swim", Msg: "value written to f10 is never read",
		Analyzer: "defuse", Severity: "warning", Addr: 0x010020,
	}
	if got := byAddr.String(); got != "workload:swim: 0x010020: warning: value written to f10 is never read [defuse]" {
		t.Errorf("address rendering = %q", got)
	}
}

// TestErrorRequiresProof checks the soundness stance end to end: a store
// through an unknown register address must stay a warning at most, while
// a store whose every possible address is outside the image is an error.
func TestErrorRequiresProof(t *testing.T) {
	// r1 is loaded from memory: the analysis cannot know its value, so the
	// store through it must not be flagged at all.
	const unknown = ".data\nv: .word 1\n.text\nmain:\n  la r2, v\n  ldq r1, 0(r2)\n  stq r2, 0(r1)\n  halt\n"
	for _, d := range analyzeSrc(t, unknown) {
		if d.Analyzer == "membounds" {
			t.Errorf("store through unknown address flagged: %s", d)
		}
	}
	const provable = ".text\nmain:\n  li r1, 0x500000\n  stq r1, 0(r1)\n  halt\n"
	sawError := false
	for _, d := range analyzeSrc(t, provable) {
		if d.Analyzer == "membounds" && d.Severity == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("provably out-of-image store did not produce an error finding")
	}
}
