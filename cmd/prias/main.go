// Command prias is the PRISC-64 assembler tool: it assembles a source file
// and disassembles it, runs it functionally, or runs it through the timing
// pipeline (via the public prisim Engine API).
//
// Usage:
//
//	prias -d prog.s          # assemble and disassemble
//	prias -run prog.s        # assemble and execute functionally
//	prias -time prog.s       # assemble and run on the 4-wide timing model
//	prias -o img.json prog.s # assemble and write the image as JSON
//
// Assembly failures print every diagnostic, one per line, as
// file:line:col: message, and exit 2. cmd/priscan runs the static
// analyzers over a source file.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/emu"
	"prisim/internal/trace"
)

// fatal prints err once under the command prefix and exits — status 2 for
// usage errors (bad option values), 1 for runtime failures, matching
// prisim and priexp.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prias:", err)
	code := 1
	for _, usage := range []error{prisim.ErrUnknownBenchmark, prisim.ErrUnknownPolicy, prisim.ErrInvalidOptions} {
		if errors.Is(err, usage) {
			code = 2
		}
	}
	os.Exit(code)
}

// usageFatal is fatal for input the user got wrong (a source file that
// does not assemble): always exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "prias:", err)
	os.Exit(2)
}

// assemblyFatal prints every positioned diagnostic, one per line, then
// exits 2. The frontend collects multiple errors per pass, so the user
// fixes them in one edit instead of replaying the assembler error by error.
func assemblyFatal(err error) {
	diags := asm.Diagnostics(err)
	if len(diags) == 0 {
		usageFatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	os.Exit(2)
}

// image is the -o serialization: the assembled program plus enough identity
// metadata (assembler version, content hash) to audit what produced it.
type image struct {
	Format  string `json:"format"`
	Version string `json:"version"`
	SHA256  string `json:"sha256"`
	*asm.Program
}

// writeImage writes the assembled image to path as indented JSON.
func writeImage(path string, prog *asm.Program) error {
	data, err := json.MarshalIndent(image{
		Format:  "prisim-image-v1",
		Version: prisim.Version,
		SHA256:  prog.SHA256(),
		Program: prog,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	dis := flag.Bool("d", false, "disassemble")
	run := flag.Bool("run", false, "execute functionally and print output")
	timeIt := flag.Bool("time", false, "run on the 4-wide timing model")
	traceOut := flag.String("trace", "", "capture a binary instruction trace to this file")
	mix := flag.Bool("mix", false, "print the instruction mix after a functional run")
	out := flag.String("o", "", "write the assembled image to this file as JSON")
	limit := flag.Uint64("limit", 100_000_000, "instruction limit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("prias", prisim.Version)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: prias [-d|-run|-time|-mix|-trace out|-o img.json] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.AssembleFile(flag.Arg(0), string(src))
	if err != nil {
		assemblyFatal(err)
	}
	if *out != "" {
		if err := writeImage(*out, prog); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d instructions, sha256 %.12s...)\n", *out, len(prog.Code), prog.SHA256())
		if !*dis && !*run && !*timeIt && !*mix && *traceOut == "" {
			return
		}
	}
	switch {
	case *traceOut != "":
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw, err := trace.NewWriter(f)
		if err != nil {
			fatal(err)
		}
		n, err := trace.Capture(emu.New(prog), *limit, tw)
		if err == nil {
			err = tw.Flush()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("captured %d instructions to %s\n", n, *traceOut)
	case *mix:
		m := emu.New(prog)
		var buf bytes.Buffer
		tw, _ := trace.NewWriter(&buf)
		trace.Capture(m, *limit, tw)
		tw.Flush()
		tr, _ := trace.NewReader(bytes.NewReader(buf.Bytes()))
		mx, err := trace.AnalyzeMix(tr, 10)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("total      %d\n", mx.Total)
		fmt.Printf("loads      %d (%.1f%%)\n", mx.Loads, pct(mx.Loads, mx.Total))
		fmt.Printf("stores     %d (%.1f%%)\n", mx.Stores, pct(mx.Stores, mx.Total))
		fmt.Printf("branches   %d (%.1f%%), %.1f%% taken\n", mx.Branches, pct(mx.Branches, mx.Total), 100*mx.TakenFrac)
		fmt.Printf("jumps      %d\n", mx.Jumps)
		fmt.Printf("int alu    %d, int mul/div %d, fp %d\n", mx.IntALU, mx.IntMul, mx.FP)
		fmt.Printf("narrow     %.1f%% of results fit 10 bits\n", 100*mx.NarrowFrac)
	case *dis:
		fmt.Print(prog.Disassemble())
	case *timeIt:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		res, err := prisim.NewEngine().SimulateProgram(ctx, prisim.NewProgram(prog),
			prisim.Options{Run: *limit})
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(res.Output)
		fmt.Printf("\n%d instructions, %d cycles, IPC %.3f\n", res.Committed, res.Cycles, res.IPC)
	case *run:
		m := emu.New(prog)
		n := m.Run(*limit)
		os.Stdout.Write(m.Output())
		fmt.Printf("\n%d instructions executed, halted=%v\n", n, m.Halted())
	default:
		fmt.Printf("assembled %d instructions, %d data segments, entry %#x\n",
			len(prog.Code), len(prog.Data), prog.Entry)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
