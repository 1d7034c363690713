// Command prisimctl is the CLI client for prisimd.
//
// Usage:
//
//	prisimctl [-addr URL] <command> [args]
//
// Commands:
//
//	simulate <bench> [-width N] [-policy P] [-prs N] [-ff N] [-run N] [-wait]
//	experiment <name> [-ff N] [-run N] [-wait]
//	run-program <file.s> [-width N] [-policy P] [-prs N] [-ff N] [-run N] [-wait]
//	check-program <file.s> [-Werror]
//	status <job-id>
//	result <job-id>
//	wait <job-id>
//	watch <job-id>        stream SSE progress events
//	cancel <job-id>
//	jobs                  list jobs
//	benchmarks            list workload names
//	experiments           list experiment names
//	metrics               dump the /metrics page
//	version               client and server versions
//
// Fabric commands (against a coordinator daemon):
//
//	submit-matrix -benchmarks a,b -policies p,q [-widths 4,8] [-prs N,M] [-ff N] [-run N] [-wait]
//	matrix-status <matrix-id>
//	matrix-result <matrix-id>
//	matrices              list matrices
//	workers               list registered workers
//	register-worker <url>
//	deregister-worker <worker-id>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"prisim"
	"prisim/prisimclient"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prisimctl [-addr URL] <command> [args]
commands:
  simulate <bench> [-width N] [-policy P] [-prs N] [-ff N] [-run N] [-wait]
  experiment <name> [-ff N] [-run N] [-wait]
  run-program <file.s> [-width N] [-policy P] [-prs N] [-ff N] [-run N] [-wait]
  check-program <file.s> [-Werror]
  status|result|wait|watch|cancel <job-id>
  jobs | benchmarks | experiments | metrics | version
fabric commands (against a coordinator):
  submit-matrix -benchmarks a,b -policies p,q [-widths 4,8] [-prs N,M] [-ff N] [-run N] [-wait]
  matrix-status|matrix-result <matrix-id>
  matrices | workers
  register-worker <url> | deregister-worker <worker-id>`)
}

func main() {
	addr := flag.String("addr", "http://localhost:8064", "prisimd base URL")
	version := flag.Bool("version", false, "print client version and exit")
	flag.Usage = func() { usage(); flag.PrintDefaults() }
	flag.Parse()
	if *version {
		fmt.Println("prisimctl", prisim.Version)
		return
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr // tolerate a bare host:port
	}
	c := prisimclient.NewClient(*addr)
	cmd, args := flag.Arg(0), flag.Args()[1:]

	var err error
	switch cmd {
	case "simulate":
		err = submit(ctx, c, prisimclient.KindSimulate, args)
	case "experiment":
		err = submit(ctx, c, prisimclient.KindExperiment, args)
	case "run-program":
		err = runProgram(ctx, c, args)
	case "check-program":
		err = checkProgram(ctx, c, args)
	case "status":
		err = withJobID(args, func(id string) error {
			j, err := c.Job(ctx, id)
			return printJSON(j, err)
		})
	case "result":
		err = withJobID(args, func(id string) error { return printResult(ctx, c, id) })
	case "wait":
		err = withJobID(args, func(id string) error {
			j, err := c.Wait(ctx, id, 0)
			if err != nil {
				return err
			}
			return printJSON(j, nil)
		})
	case "watch":
		err = withJobID(args, func(id string) error {
			_, err := c.Stream(ctx, id, func(ev prisimclient.Event) {
				fmt.Printf("%-8s state=%-9s progress=%d/%d %s\n",
					ev.Type, ev.State, ev.Progress.Done, ev.Progress.Total, ev.Error)
			})
			return err
		})
	case "cancel":
		err = withJobID(args, func(id string) error {
			j, err := c.Cancel(ctx, id)
			return printJSON(j, err)
		})
	case "jobs":
		js, jerr := c.Jobs(ctx)
		if jerr == nil {
			for _, j := range js {
				fmt.Printf("%-8s %-10s %-10s %-9s %d/%d %s\n",
					j.ID, j.Request.Kind, j.Request.Benchmark+j.Request.Experiment,
					j.State, j.Progress.Done, j.Progress.Total, j.Error)
			}
		}
		err = jerr
	case "benchmarks":
		err = printList(c.Benchmarks(ctx))
	case "experiments":
		err = printList(c.Experiments(ctx))
	case "submit-matrix":
		err = submitMatrix(ctx, c, args)
	case "matrix-status":
		err = withJobID(args, func(id string) error {
			st, serr := c.MatrixStatus(ctx, id)
			return printJSON(st, serr)
		})
	case "matrix-result":
		err = withJobID(args, func(id string) error { return printMatrixResult(ctx, c, id) })
	case "matrices":
		ms, merr := c.Matrices(ctx)
		if merr == nil {
			for _, m := range ms {
				fmt.Printf("%-20s %-9s points=%d done=%d hits=%d executed=%d coalesced=%d %s\n",
					m.ID, m.State, m.Points, m.Done, m.StoreHits, m.Executed, m.Coalesced, m.Error)
			}
		}
		err = merr
	case "workers":
		ws, werr := c.Workers(ctx)
		if werr == nil {
			for _, w := range ws {
				health := "healthy"
				if !w.Healthy {
					health = "unhealthy"
				}
				fmt.Printf("%-6s %-28s %-9s inflight=%d completed=%d failures=%d %s\n",
					w.ID, w.URL, health, w.InFlight, w.Completed, w.Failures, w.LastError)
			}
		}
		err = werr
	case "register-worker":
		err = withJobID(args, func(url string) error {
			info, rerr := c.RegisterWorker(ctx, url)
			return printJSON(info, rerr)
		})
	case "deregister-worker":
		err = withJobID(args, func(id string) error { return c.DeregisterWorker(ctx, id) })
	case "metrics":
		var page string
		if page, err = c.Metrics(ctx); err == nil {
			fmt.Print(page)
		}
	case "version":
		fmt.Println("client", prisim.Version)
		var v string
		if v, err = c.Version(ctx); err == nil {
			fmt.Println("server", v)
		}
	default:
		fmt.Fprintf(os.Stderr, "prisimctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// fatal prints the error and exits: 2 for usage-class errors (bad request,
// unknown name, a program that does not assemble — HTTP 4xx other than
// 409/410/429), 1 otherwise. Assembly rejections (422) print every
// positioned diagnostic the server returned, one per line.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "prisimctl: %s\n", err)
	var apiErr *prisimclient.APIError
	if errors.As(err, &apiErr) {
		for _, d := range apiErr.Diagnostics {
			fmt.Fprintln(os.Stderr, d.String())
		}
		if apiErr.StatusCode == 400 || apiErr.StatusCode == 404 || apiErr.StatusCode == 422 {
			os.Exit(2)
		}
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

var errUsage = errors.New("expected exactly one argument")

func withJobID(args []string, fn func(id string) error) error {
	if len(args) != 1 {
		return errUsage
	}
	return fn(args[0])
}

func printJSON(v any, err error) error {
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func printList(names []string, err error) error {
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

// printResult renders a finished job: tables as text, simulate results as
// JSON.
func printResult(ctx context.Context, c *prisimclient.Client, id string) error {
	res, err := c.Result(ctx, id)
	if err != nil {
		return err
	}
	if len(res.Tables) > 0 {
		fmt.Print(res.Text())
		return nil
	}
	return printJSON(res.Result, nil)
}

// printMatrixResult renders a finished matrix's tables as text.
func printMatrixResult(ctx context.Context, c *prisimclient.Client, id string) error {
	res, err := c.MatrixResult(ctx, id)
	if err != nil {
		return err
	}
	fmt.Print(res.Text())
	return nil
}

// splitInts parses a comma-separated integer list flag.
func splitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitNames parses a comma-separated name list flag.
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// submitMatrix parses the submit-matrix flags, submits the matrix to the
// coordinator, and either prints the accepted status or (with -wait)
// blocks for the assembled tables.
func submitMatrix(ctx context.Context, c *prisimclient.Client, args []string) error {
	fs := flag.NewFlagSet("submit-matrix", flag.ExitOnError)
	benches := fs.String("benchmarks", "", "comma-separated workload names (required)")
	policies := fs.String("policies", "", "comma-separated release policies (required)")
	widths := fs.String("widths", "", "comma-separated machine widths (default 4)")
	prs := fs.String("prs", "", "comma-separated physical-register counts (default machine default)")
	ff := fs.Uint64("ff", 0, "fast-forward instructions per point")
	run := fs.Uint64("run", 0, "measured instructions per point")
	wait := fs.Bool("wait", false, "wait for the matrix and print its tables")
	fs.Parse(args)
	ws, err := splitInts(*widths)
	if err != nil {
		return err
	}
	ps, err := splitInts(*prs)
	if err != nil {
		return err
	}
	m := prisimclient.Matrix{
		Benchmarks:  splitNames(*benches),
		Policies:    splitNames(*policies),
		Widths:      ws,
		PhysRegs:    ps,
		FastForward: *ff,
		Run:         *run,
	}
	st, err := c.SubmitMatrix(ctx, m)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(st, nil)
	}
	final, err := c.WaitMatrix(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	if final.State != prisimclient.StateDone {
		return fmt.Errorf("matrix %s %s: %s", final.ID, final.State, final.Error)
	}
	return printMatrixResult(ctx, c, final.ID)
}

// checkProgram assemble-checks a source file on the server without
// running it: the image identity and inlinability summary print as JSON
// on stdout, priscan warnings print with carets on stderr. Exit status
// follows the priscan convention: 0 clean, 1 when warnings were
// reported and -Werror is set, 2 when the server rejected the program
// (assembly failure or a provable static-analysis error — both 422 with
// positioned diagnostics, rendered by fatal).
func checkProgram(ctx context.Context, c *prisimclient.Client, args []string) error {
	fs := flag.NewFlagSet("check-program", flag.ExitOnError)
	werror := fs.Bool("Werror", false, "exit 1 when the server reported warnings")
	if len(args) < 1 || args[0] == "" || args[0][0] == '-' {
		fmt.Fprintln(os.Stderr, "usage: prisimctl check-program <file.s> [-Werror]")
		os.Exit(2)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	fs.Parse(args[1:])
	info, err := c.CheckProgram(ctx, src)
	if err != nil {
		return err
	}
	for _, d := range info.Warnings {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if err := printJSON(info, nil); err != nil {
		return err
	}
	if *werror && len(info.Warnings) > 0 {
		os.Exit(1)
	}
	return nil
}

// runProgram assembles nothing locally: it reads the source file, submits
// it as a program job, and either prints the accepted job or (with -wait)
// blocks for the result, writing the program's console output to stdout
// before the timing statistics.
func runProgram(ctx context.Context, c *prisimclient.Client, args []string) error {
	fs := flag.NewFlagSet("run-program", flag.ExitOnError)
	width := fs.Int("width", 0, "machine width (4 or 8)")
	policy := fs.String("policy", "", "release policy")
	prs := fs.Int("prs", 0, "physical registers per class")
	ff := fs.Uint64("ff", 0, "fast-forward instructions")
	run := fs.Uint64("run", 0, "measured instructions (0 = server cap, halt stops early)")
	inline := fs.Bool("rename-inline", false, "rename-time inlining extension")
	delayed := fs.Bool("delayed-alloc", false, "delayed register allocation")
	wait := fs.Bool("wait", false, "wait for the job and print output + result")
	if len(args) < 1 || args[0] == "" || args[0][0] == '-' {
		fmt.Fprintln(os.Stderr, "usage: prisimctl run-program <file.s> [flags]")
		os.Exit(2)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	fs.Parse(args[1:])

	j, err := c.SubmitProgram(ctx, src, prisimclient.JobRequest{
		Width:             *width,
		Policy:            *policy,
		PhysRegs:          *prs,
		FastForward:       *ff,
		Run:               *run,
		RenameInline:      *inline,
		DelayedAllocation: *delayed,
	})
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(j, nil)
	}
	final, err := c.Wait(ctx, j.ID, 100*time.Millisecond)
	if err != nil {
		return err
	}
	if final.State != prisimclient.StateDone {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	res, err := c.Result(ctx, j.ID)
	if err != nil {
		return err
	}
	if len(res.Output) > 0 {
		os.Stdout.Write(res.Output)
		if res.Output[len(res.Output)-1] != '\n' {
			fmt.Println()
		}
	}
	return printJSON(res.Result, nil)
}

// submit parses a simulate/experiment subcommand, submits it, and either
// prints the accepted job or (with -wait) blocks for the result.
func submit(ctx context.Context, c *prisimclient.Client, kind string, args []string) error {
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	width := fs.Int("width", 0, "machine width (4 or 8)")
	policy := fs.String("policy", "", "release policy")
	prs := fs.Int("prs", 0, "physical registers per class")
	ff := fs.Uint64("ff", 0, "fast-forward instructions")
	run := fs.Uint64("run", 0, "measured instructions")
	inline := fs.Bool("rename-inline", false, "rename-time inlining extension")
	delayed := fs.Bool("delayed-alloc", false, "delayed register allocation")
	wait := fs.Bool("wait", false, "wait for the job and print its result")
	if len(args) < 1 || args[0] == "" || args[0][0] == '-' {
		fmt.Fprintf(os.Stderr, "usage: prisimctl %s <name> [flags]\n", kind)
		os.Exit(2)
	}
	name := args[0]
	fs.Parse(args[1:])

	req := prisimclient.JobRequest{
		Kind:              kind,
		Width:             *width,
		Policy:            *policy,
		PhysRegs:          *prs,
		FastForward:       *ff,
		Run:               *run,
		RenameInline:      *inline,
		DelayedAllocation: *delayed,
	}
	if kind == prisimclient.KindSimulate {
		req.Benchmark = name
	} else {
		req.Experiment = name
	}
	j, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(j, nil)
	}
	final, err := c.Wait(ctx, j.ID, 100*time.Millisecond)
	if err != nil {
		return err
	}
	if final.State != prisimclient.StateDone {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	return printResult(ctx, c, final.ID)
}
