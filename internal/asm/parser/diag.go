package parser

import (
	"fmt"
	"sort"
	"strings"
)

// Diagnostic is one positioned assembly error or static-analysis finding,
// the one diagnostic type from the assembler and priscan to the service's
// wire. Line and Col are 1-based and rune-accurate; Excerpt is the
// offending source line (empty when the position falls outside the input).
// Analyzer, Severity ("warning" or "error") and Addr (the instruction
// address, which positions a finding whose source line is unknown) are set
// by priscan findings only.
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

// String renders "file:line:col: " (or, with no line, the instruction
// address after any file name), then "severity: " when set, the message,
// " [analyzer]" when set, and the source excerpt with a caret under the
// offending column.
func (d Diagnostic) String() string {
	var sb strings.Builder
	switch {
	case d.Line > 0:
		fmt.Fprintf(&sb, "%s:%d:%d: ", d.File, d.Line, d.Col)
	case d.File != "":
		fmt.Fprintf(&sb, "%s: %#06x: ", d.File, d.Addr)
	default:
		fmt.Fprintf(&sb, "%#06x: ", d.Addr)
	}
	if d.Severity != "" {
		sb.WriteString(d.Severity + ": ")
	}
	sb.WriteString(d.Msg)
	if d.Analyzer != "" {
		fmt.Fprintf(&sb, " [%s]", d.Analyzer)
	}
	if d.Excerpt != "" {
		// Tabs would break caret alignment; display them as single spaces.
		display := strings.ReplaceAll(d.Excerpt, "\t", " ")
		fmt.Fprintf(&sb, "\n    %s", display)
		if d.Col >= 1 && d.Col <= len([]rune(display))+1 {
			fmt.Fprintf(&sb, "\n    %s^", strings.Repeat(" ", d.Col-1))
		}
	}
	return sb.String()
}

// Error is the collected result of a failed assembly: every diagnostic
// found, not just the first, ordered by source position.
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	if len(e.Diags) == 0 {
		return "asm: assembly failed"
	}
	parts := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// maxDiagnostics bounds error collection so a pathological input cannot
// produce an unbounded report. The cap is noted in the final diagnostic.
const maxDiagnostics = 100

func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})
}
