// Command priscan runs the static dataflow analyzers from
// internal/asm/analysis over guest PRISC-64 programs without simulating
// them. It accepts assembly source files and/or the built-in workload
// kernels:
//
//	priscan prog.s              # analyze one source file
//	priscan -Werror prog.s      # warnings fail the scan
//	priscan -workloads          # analyze every built-in workload image
//	priscan -json prog.s        # machine-readable report per program
//	priscan -analyzers          # list the analyzers and exit
//
// Findings print to stderr as file:line:col: severity: msg [analyzer]
// with a caret excerpt (builder-built workloads, which carry no source
// positions, print by instruction address instead); a one-line
// inlinability summary per program prints to stdout. Exit status is 0
// when every program is clean, 1 when only warnings were found and
// -Werror is set, 2 on provable errors, bad usage, or assembly failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/workloads"
)

// jsonReport is the -json serialization for one analyzed program.
type jsonReport struct {
	Name         string                `json:"name"`
	Instructions int                   `json:"instructions"`
	Findings     []asm.Diagnostic      `json:"findings"`
	Inlinability analysis.Inlinability `json:"inlinability"`
	Loops        []analysis.Loop       `json:"loops"`
}

func main() {
	werror := flag.Bool("Werror", false, "exit 1 when any warning is reported")
	jsonOut := flag.Bool("json", false, "print one JSON report per program to stdout")
	bits := flag.Int("bits", 0, "inline width in bits for the narrowness analyzer (0 = simulator default)")
	allWorkloads := flag.Bool("workloads", false, "also analyze every built-in workload kernel")
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("priscan", prisim.Version)
		return
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 && !*allWorkloads {
		fmt.Fprintln(os.Stderr, "usage: priscan [-Werror] [-json] [-bits n] [-workloads] [prog.s ...]")
		os.Exit(2)
	}
	opts := analysis.Options{NarrowBits: *bits}

	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	scan := func(name string, prog *asm.Program, src string) {
		rep := analysis.Analyze(prog, opts)
		diags := rep.Diagnostics(prog, name, src)
		if *jsonOut {
			data, err := json.MarshalIndent(jsonReport{
				Name:         name,
				Instructions: len(prog.Code),
				Findings:     diags,
				Inlinability: rep.Inlinability,
				Loops:        rep.Loops,
			}, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "priscan:", err)
				os.Exit(2)
			}
			fmt.Println(string(data))
		} else {
			for _, d := range diags {
				fmt.Fprintln(os.Stderr, d)
			}
			s := rep.Inlinability
			fmt.Printf("%s: %d instructions, %d loops, %d/%d defs provably narrow (%d-bit), %d wide, %d unknown\n",
				name, len(prog.Code), len(rep.Loops), s.Narrow, s.Defs, s.NarrowBits, s.Wide, s.Unknown)
		}
		raise(analysis.ExitCode(diags, *werror))
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "priscan:", err)
			os.Exit(2)
		}
		prog, err := asm.AssembleFile(path, string(src))
		if err != nil {
			for _, d := range asm.Diagnostics(err) {
				fmt.Fprintln(os.Stderr, d.String())
			}
			os.Exit(2)
		}
		scan(path, prog, string(src))
	}
	if *allWorkloads {
		for _, w := range workloads.All() {
			scan("workload:"+w.Name, w.Build(0), "")
		}
	}
	os.Exit(exit)
}
