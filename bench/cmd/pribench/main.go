// Command pribench is the repository's benchmark. It runs one workload (or
// each in turn, in a fresh process apiece), checks every output, prints one
// "workload metric value unit" line per metric and, last, a one-line JSON
// summary, and appends the full record to -out:
//
//	pribench -workload paper-figures -seed 1 -seconds 20 -trace 0 -out runs.jsonl
//
// -trace 1 reports per-layer metrics from a traced run instead of the
// end-to-end metrics, and -spans writes that run's spans. Two sets of
// records compare with
//
//	pribench -compare parent.jsonl change.jsonl
//
// See bench/README.md for the workloads, metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"

	"prisim/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", "", "append the run's full JSON record to this file")
	spans := flag.String("spans", "", "traced runs: write the recorded spans to this file")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the run's scratch files")
	compare := flag.Bool("compare", false, "compare two record files given as arguments: parent, then change")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			usage("-compare takes two record files")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		usage("-seconds must be positive")
	}
	if *workload == "" {
		os.Exit(runEach())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	dir, err := os.MkdirTemp(mkdir(*workdir), *workload+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	rec, err := bench.Run(ctx, bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		WorkDir: dir, Spans: *spans, Log: os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	for _, name := range metricOrder(rec) {
		v := rec.Metrics[name]
		fmt.Printf("%s %s %v %s\n", rec.Workload, name, v.Value, v.Unit)
	}
	for _, name := range sortedNames(rec.Extra) {
		v := rec.Extra[name]
		fmt.Printf("%s %s %v %s\n", rec.Workload, name, v.Value, v.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(os.Stderr, "pribench: %s: FAILED: %s\n", rec.Workload, f)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.Summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// runEach runs every workload in a child process of its own, so each
// peak_rss_mb belongs to one workload, and returns the exit status.
func runEach() int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	for _, w := range bench.Workloads {
		args := []string{"-workload", w.Name}
		flag.Visit(func(f *flag.Flag) { args = append(args, "-"+f.Name, f.Value.String()) })
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "pribench: %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

// metricOrder lists a record's metrics in their definition order.
func metricOrder(rec *bench.Record) []string {
	defs := bench.EndToEnd
	if rec.Trace {
		defs = bench.PerLayer
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

func appendRecord(path string, rec *bench.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// runCompare prints one row per workload and end-to-end metric: both
// sides' quartiles, the spread, and the verdict, then names every metric
// left unresolved.
func runCompare(parentPath, changePath string) error {
	parent, err := bench.ReadRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := bench.ReadRecords(changePath)
	if err != nil {
		return err
	}
	rows := bench.Compare(parent, change)
	if len(rows) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}
	fmt.Printf("%-15s %-13s %-6s %-32s %-32s %7s %6s  %s\n", "workload", "metric", "unit",
		"parent q1/median/q3 (n)", "change q1/median/q3 (n)", "spread", "bound", "verdict")
	var unresolved []bench.Row
	for _, r := range rows {
		fmt.Printf("%-15s %-13s %-6s %-32s %-32s %6.1f%% %5.0f%%  %s\n", r.Workload, r.Metric, r.Unit,
			quart(r.Parent, r.NParent), quart(r.Change, r.NChange), 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == bench.Unresolved {
			unresolved = append(unresolved, r)
		}
	}
	for _, r := range unresolved {
		fmt.Printf("unresolved: %s %s: spread %.1f%% exceeds its bound %.0f%% (or fewer than two runs a side)\n",
			r.Workload, r.Metric, 100*r.Spread, 100*r.Bound)
	}
	return nil
}

func quart(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", q[0], q[1], q[2], n)
}

func sortedNames(m map[string]bench.Value) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "pribench: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pribench: %v\n", err)
	os.Exit(1)
}
