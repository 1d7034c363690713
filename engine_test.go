package prisim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps Engine tests quick; shapes, not paper numbers, are asserted.
func fastEngine(extra ...EngineOption) *Engine {
	return NewEngine(append([]EngineOption{WithBudget(500, 4000)}, extra...)...)
}

func TestEngineSimulate(t *testing.T) {
	eng := fastEngine()
	res, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gzip" || res.IPC <= 0 || res.Committed == 0 {
		t.Errorf("bad result: %+v", res)
	}
	if res.Machine == "" || res.IntPRs == 0 {
		t.Errorf("machine fields unset: %q, %d PRs", res.Machine, res.IntPRs)
	}
	// Second call is a cache hit: no new simulation.
	if _, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip"}); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Executed; got != 1 {
		t.Errorf("Executed = %d, want 1", got)
	}
}

func TestEngineErrorSentinels(t *testing.T) {
	eng := fastEngine()
	ctx := context.Background()
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"unknown benchmark", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "quake3"})
			return err
		}, ErrUnknownBenchmark},
		{"unknown policy", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", Policy: "magic"})
			return err
		}, ErrUnknownPolicy},
		{"bad width", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", Width: 6})
			return err
		}, ErrInvalidOptions},
		{"bad phys regs", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", PhysRegs: 8})
			return err
		}, ErrInvalidOptions},
		{"bad machine json", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", MachineJSON: []byte("{")})
			return err
		}, ErrInvalidOptions},
		{"unknown experiment", func() error {
			_, err := eng.Experiment(ctx, "fig99", Options{})
			return err
		}, ErrUnknownExperiment},
		{"program with benchmark set", func() error {
			p, err := Assemble(".text\nmain:\n  halt\n")
			if err != nil {
				return err
			}
			_, err = eng.SimulateProgram(ctx, p, Options{Benchmark: "gzip"})
			return err
		}, ErrInvalidOptions},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.want)
		}
		if !strings.HasPrefix(err.Error(), "prisim: ") {
			t.Errorf("%s: error not prefixed: %v", tc.name, err)
		}
	}
}

// TestOptionsValidateMatchesSimulate checks that Validate returns exactly
// the error Simulate returns, nil included, and that with no benchmark it
// checks the machine alone.
func TestOptionsValidateMatchesSimulate(t *testing.T) {
	eng := fastEngine()
	for _, o := range []Options{
		{Benchmark: "gzip", Width: 8, Policy: PolicyPRI, PhysRegs: 48},
		{Benchmark: "quake3"},
		{Benchmark: "quake3", Policy: "magic"},
		{Benchmark: "gzip", Policy: "magic"},
		{Benchmark: "gzip", Width: 6},
		{Benchmark: "gzip", PhysRegs: 8},
		{Benchmark: "gzip", MachineJSON: []byte("{")},
	} {
		_, simErr := eng.Simulate(context.Background(), o)
		if valErr := o.Validate(); fmt.Sprint(valErr) != fmt.Sprint(simErr) {
			t.Errorf("%+v: Validate() = %v, Simulate error = %v", o, valErr, simErr)
		}
	}
	if err := (Options{Policy: PolicyPRIPlusER, Width: 8}).Validate(); err != nil {
		t.Errorf("machine-only Validate: %v", err)
	}
	if err := (Options{Policy: "magic"}).Validate(); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("machine-only Validate with an unknown policy = %v, want ErrUnknownPolicy", err)
	}
}

func TestExperimentNameDispatch(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 14 || names[0] != "table1" {
		t.Fatalf("ExperimentNames() = %v", names)
	}
	eng := fastEngine()
	out, err := eng.Experiment(context.Background(), "table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ROB") {
		t.Errorf("table1 output missing ROB:\n%s", out)
	}
	tables, err := eng.ExperimentTables(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 13 {
		t.Errorf("fig8 shape: %d tables", len(tables))
	}
	if tables[0].String() == "" {
		t.Error("Table.String empty")
	}
}

func TestExperimentCancellation(t *testing.T) {
	// Pre-cancelled context fails fast without simulating.
	eng := fastEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Experiment(ctx, "fig8", Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Experiment error = %v", err)
	}
	if eng.CacheStats().Executed != 0 {
		t.Error("cancelled sweep still simulated")
	}

	// Cancellation mid-sweep: large budget, cancel shortly after kickoff.
	slow := NewEngine(WithBudget(2000, 50_000))
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := slow.Experiment(ctx2, "fig8", Options{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-sweep cancellation error = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
}

// TestEngineStress hammers one Engine from 16 goroutines mixing Simulate
// calls over a small point set and asserts singleflight deduplication:
// every distinct point simulated exactly once. Meaningful under -race.
func TestEngineStress(t *testing.T) {
	eng := NewEngine(WithBudget(200, 1000))
	points := []Options{
		{Benchmark: "gzip"},
		{Benchmark: "gzip", Policy: PolicyPRI},
		{Benchmark: "mcf", Width: 8},
		{Benchmark: "parser", PhysRegs: 48},
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([][]Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, o := range points {
					res, err := eng.Simulate(context.Background(), o)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := eng.CacheStats().Executed; got != len(points) {
		t.Errorf("Executed = %d for %d unique points under %d goroutines, want %d",
			got, len(points), goroutines, len(points))
	}
	// All goroutines observed identical values for identical points.
	for g := 1; g < goroutines; g++ {
		for i, r := range results[g] {
			if r != results[0][i] {
				t.Fatalf("goroutine %d result %d diverged", g, i)
			}
		}
	}
}

func TestEngineExperimentDeterminism(t *testing.T) {
	// Same experiment on a serial and a parallel Engine: byte-identical text.
	serial, err := NewEngine(WithBudget(300, 1500), WithParallelism(1)).
		Experiment(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(WithBudget(300, 1500), WithParallelism(8)).
		Experiment(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

func TestSimulateProgram(t *testing.T) {
	p, err := Assemble(`
.text
main:
  li r1, 72          ; 'H'
  putc r1
  li r1, 10
  putc r1
  halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disassemble() == "" {
		t.Error("empty disassembly")
	}
	res, err := fastEngine().SimulateProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "H\n" {
		t.Errorf("program output = %q, want \"H\\n\"", res.Output)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Errorf("empty timing result: %+v", res.Result)
	}
}

func TestMachineJSONRoundTrip(t *testing.T) {
	data, err := MachineJSON(Options{Policy: PolicyPRI, PhysRegs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "48") {
		t.Errorf("machine JSON missing PR count:\n%s", data)
	}
	// Feeding the JSON back selects the same machine (uncached path).
	eng := fastEngine()
	res, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip", MachineJSON: data, Policy: PolicyPRI, PhysRegs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntPRs != 48 {
		t.Errorf("IntPRs = %d, want 48", res.IntPRs)
	}
}

// TestMachineJSONSharesPlainPoint pins that the run cache is keyed by the
// whole machine: a MachineJSON rendering of the default machine is the
// same point as the plain request and is answered from its cache entry.
func TestMachineJSONSharesPlainPoint(t *testing.T) {
	eng := fastEngine()
	data, err := MachineJSON(Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err1 := eng.Simulate(context.Background(), Options{Benchmark: "gzip"})
	viaJSON, err2 := eng.Simulate(context.Background(), Options{Benchmark: "gzip", MachineJSON: data})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if viaJSON != plain {
		t.Errorf("MachineJSON result = %+v, want the plain point's %+v", viaJSON, plain)
	}
	if cs := eng.CacheStats(); cs.Executed != 1 || cs.Hits != 1 {
		t.Errorf("CacheStats = %+v, want Executed 1 and Hits 1", cs)
	}
}
