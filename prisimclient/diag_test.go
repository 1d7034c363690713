package prisimclient

import (
	"encoding/json"
	"fmt"
	"testing"

	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
)

// TestDiagnosticShapesPinned fixes the text and JSON of every diagnostic
// shape the toolchain emits: assembler errors, source-positioned priscan
// findings, address-only findings with and without a file name, and a wire
// diagnostic with neither a line nor an address. The service, prisimctl and
// priscan all print these strings, and clients decode the JSON.
func TestDiagnosticShapesPinned(t *testing.T) {
	render := func(d fmt.Stringer) string {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return d.String() + "\n" + string(data)
	}
	var got []string

	const src = "main:\n\taddi r1, r99, 1\n  bogus r1\n  beq r1, r2, nowhere\n  halt\n"
	_, err := asm.AssembleFile("prog.s", src)
	diags := asm.Diagnostics(err)
	if len(diags) == 0 {
		t.Fatalf("assembly did not fail with diagnostics: %v", err)
	}
	for _, d := range diags {
		got = append(got, render(d))
	}

	lint := func(file, src string, lines []asm.SrcPos, f analysis.Finding) {
		prog := &asm.Program{CodeBase: asm.DefaultCodeBase, Lines: lines}
		rep := &analysis.Report{Findings: []analysis.Finding{f}}
		for _, d := range rep.Diagnostics(prog, file, src) {
			got = append(got, render(d))
		}
	}
	lint("p.s", "main:\n  nop\n\tstq  r1, 0(r2)\n", []asm.SrcPos{{Line: 3, Col: 5}},
		analysis.Finding{Analyzer: "membounds", Severity: analysis.SevError, Index: 0, Addr: 0x010000, Msg: "m"})
	lint("workload:swim", "", nil,
		analysis.Finding{Analyzer: "defuse", Severity: analysis.SevWarn, Index: 8, Addr: 0x010020, Msg: "m2"})
	lint("", "", nil,
		analysis.Finding{Analyzer: "reach", Severity: analysis.SevWarn, Index: 9, Addr: 0x010024, Msg: "m3"})

	got = append(got, render(Diagnostic{File: "program.s", Msg: "m4", Analyzer: "reach", Severity: "warning"}))

	want := []string{
		"prog.s:2:11: expected register, found \"r99\"\n     addi r1, r99, 1\n              ^\n" +
			`{"file":"prog.s","line":2,"col":11,"msg":"expected register, found \"r99\"","excerpt":"\taddi r1, r99, 1"}`,
		"prog.s:3:3: unknown mnemonic \"bogus\"\n      bogus r1\n      ^\n" +
			`{"file":"prog.s","line":3,"col":3,"msg":"unknown mnemonic \"bogus\"","excerpt":"  bogus r1"}`,
		"prog.s:4:15: undefined symbol \"nowhere\"\n      beq r1, r2, nowhere\n                  ^\n" +
			`{"file":"prog.s","line":4,"col":15,"msg":"undefined symbol \"nowhere\"","excerpt":"  beq r1, r2, nowhere"}`,
		"p.s:3:5: error: m [membounds]\n     stq  r1, 0(r2)\n        ^\n" +
			`{"file":"p.s","line":3,"col":5,"msg":"m","excerpt":"\tstq  r1, 0(r2)","analyzer":"membounds","severity":"error","addr":65536}`,
		"workload:swim: 0x010020: warning: m2 [defuse]\n" +
			`{"file":"workload:swim","line":0,"col":0,"msg":"m2","analyzer":"defuse","severity":"warning","addr":65568}`,
		"0x010024: warning: m3 [reach]\n" +
			`{"file":"","line":0,"col":0,"msg":"m3","analyzer":"reach","severity":"warning","addr":65572}`,
		"program.s: 0x000000: warning: m4 [reach]\n" +
			`{"file":"program.s","line":0,"col":0,"msg":"m4","analyzer":"reach","severity":"warning"}`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d shapes, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shape %d changed:\ngot  %q\nwant %q", i, got[i], want[i])
		}
	}
}
