package harness

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// tinyBudget keeps the unit tests fast; experiment shape is asserted, not
// paper-grade numbers.
var tinyBudget = Budget{FastForward: 500, Run: 4000}

var bg = context.Background()

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(tinyBudget)
	w, _ := workloads.ByName("gzip")
	a := r.Run(w, ooo.Width4())
	b := r.Run(w, ooo.Width4())
	if a != b {
		t.Error("identical runs not cached")
	}
	if got := r.CacheStats().Executed; got != 1 {
		t.Errorf("Executed = %d after one unique point, want 1", got)
	}
	c := r.Run(w, ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt))
	if c == a {
		t.Error("different policies shared a cache entry")
	}
	cons := ooo.Width4()
	cons.ConservativeDisambiguation = true
	if r.Run(w, cons) == a {
		t.Error("disambiguation modes shared a cache entry")
	}
}

func TestBudgetViewsShareCache(t *testing.T) {
	r := NewRunner(tinyBudget)
	w, _ := workloads.ByName("gzip")
	a := r.Run(w, ooo.Width4())
	// Same budget through a view: must hit the same entry.
	if r.WithBudget(tinyBudget).Run(w, ooo.Width4()) != a {
		t.Error("same-budget view missed the shared cache")
	}
	// A different budget is a different point.
	b := r.WithBudget(Budget{FastForward: 500, Run: 2000}).Run(w, ooo.Width4())
	if b == a {
		t.Error("different budgets shared a cache entry")
	}
	if got := r.CacheStats().Executed; got != 2 {
		t.Errorf("Executed = %d, want 2", got)
	}
}

// TestSingleflightDeduplication hammers one Runner with 16 goroutines all
// requesting the same small set of points and asserts each point simulated
// exactly once. Run under -race this also exercises the cache's locking.
func TestSingleflightDeduplication(t *testing.T) {
	r := NewParallelRunner(Budget{FastForward: 200, Run: 1000}, 4)
	w1, _ := workloads.ByName("gzip")
	w2, _ := workloads.ByName("mcf")
	cfgs := []ooo.Config{
		ooo.Width4(),
		ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt),
		ooo.Width8(),
	}
	const goroutines = 16
	results := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, w := range []workloads.Workload{w1, w2} {
				for _, cfg := range cfgs {
					res, err := r.RunCtx(bg, w, cfg)
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
	if got := r.CacheStats().Executed; got != 6 {
		t.Errorf("Executed = %d for 6 unique points hammered by %d goroutines, want 6", got, goroutines)
	}
	// Every goroutine must have observed the identical shared results.
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d result %d not shared", g, i)
			}
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	// Already-cancelled context: no simulation happens.
	r := NewRunner(tinyBudget)
	w, _ := workloads.ByName("gzip")
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := r.RunCtx(ctx, w, ooo.Width4()); err != context.Canceled {
		t.Errorf("cancelled RunCtx error = %v", err)
	}
	if r.CacheStats().Executed != 0 {
		t.Error("cancelled context still simulated")
	}

	// Mid-run cancellation: a budget far beyond the context deadline must
	// abort between chunks, and the point must remain retryable.
	big := NewRunner(Budget{FastForward: 100, Run: 50_000_000})
	ctx2, cancel2 := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel2()
	if _, err := big.RunCtx(ctx2, w, ooo.Width4()); err == nil {
		t.Fatal("mid-run cancellation did not surface")
	}
	// The cancelled flight was evicted; a fresh context retries cleanly.
	small := big.WithBudget(Budget{FastForward: 100, Run: 1000})
	if _, err := small.RunCtx(bg, w, ooo.Width4()); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// TestCancelledFlightEvictionWakesWaiter is the direct test of the
// singleflight eviction path: a waiter coalesced onto another caller's
// flight must, when that flight's owner is cancelled, observe the eviction,
// retry as the new owner under its own live context, and succeed — and the
// cancelled attempt must not be counted as executed.
func TestCancelledFlightEvictionWakesWaiter(t *testing.T) {
	r := NewParallelRunner(Budget{FastForward: 100, Run: 3_000_000}, 4)
	w, _ := workloads.ByName("gzip")
	cfg := ooo.Width4()

	ownerCtx, cancelOwner := context.WithCancel(bg)
	ownerErr := make(chan error, 1)
	go func() {
		_, err := r.RunCtx(ownerCtx, w, cfg)
		ownerErr <- err
	}()

	// Wait until the owner has installed its in-flight entry, then attach
	// a waiter with a context that stays live.
	key := runKey{w.Name, cfg, r.Budget}
	for {
		r.s.mu.Lock()
		_, inFlight := r.s.runs.flights[key]
		r.s.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waiterRes := make(chan *Result, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := r.RunCtx(bg, w, cfg)
		waiterRes <- res
		waiterErr <- err
	}()
	// Give the waiter a moment to coalesce onto the flight, then kill the
	// owner mid-run.
	time.Sleep(10 * time.Millisecond)
	cancelOwner()

	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner error = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter failed after owner cancellation: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("waiter never woke after the owner's flight was evicted")
	}
	if res := <-waiterRes; res == nil || res.IPC <= 0 {
		t.Fatalf("waiter result = %+v", res)
	}
	// Only the waiter's retry executed; the cancelled flight was evicted
	// and must not be counted.
	if got := r.CacheStats().Executed; got != 1 {
		t.Errorf("Executed = %d after cancel+retry, want 1", got)
	}
	// The cache now holds a completed entry: another request is a pure hit.
	if _, err := r.RunCtx(bg, w, cfg); err != nil {
		t.Fatal(err)
	}
	if cs := r.CacheStats(); cs.Hits < 1 || cs.Executed != 1 {
		t.Errorf("CacheStats = %+v, want >=1 hit and exactly 1 execution", cs)
	}
}

// TestProgressView asserts per-view progress accounting: the view counts
// its own resolved points, completed-entry cache hits fire nothing, and a
// second view is independent.
func TestProgressView(t *testing.T) {
	r := NewRunner(tinyBudget)
	w4, w8 := ooo.Width4(), ooo.Width8()
	w, _ := workloads.ByName("gzip")

	var mu sync.Mutex
	var got [][2]int
	v := r.ProgressView(func(done, total int) {
		mu.Lock()
		got = append(got, [2]int{done, total})
		mu.Unlock()
	})
	v.Run(w, w4)
	v.Run(w, w8)
	v.Run(w, w4) // completed-entry hit: no event
	if len(got) != 2 || got[0] != [2]int{1, 1} || got[1] != [2]int{2, 2} {
		t.Errorf("view progress events = %v, want [[1 1] [2 2]]", got)
	}
	// The budget view must keep reporting to the same hook.
	v.WithBudget(Budget{FastForward: 200, Run: 900}).Run(w, w4)
	if len(got) != 3 || got[2] != [2]int{3, 3} {
		t.Errorf("after budget view, events = %v", got)
	}
	// A fresh view starts from zero while sharing the cache (all hits: no
	// events).
	var other [][2]int
	v2 := r.ProgressView(func(done, total int) { other = append(other, [2]int{done, total}) })
	v2.Run(w, w4)
	if len(other) != 0 {
		t.Errorf("second view saw events for pure cache hits: %v", other)
	}
}

// TestParallelMatchesSerial asserts the headline property: a figure
// regenerated on a multi-worker pool is byte-identical to the single-worker
// (serial order) run.
func TestParallelMatchesSerial(t *testing.T) {
	b := Budget{FastForward: 300, Run: 1500}
	serial, err := NewParallelRunner(b, 1).Fig8(bg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewParallelRunner(b, 8).Fig8(bg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel fig8 differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestColdFig8LooksUpEachPointOnce pins the single-pass drivers: a cold
// Figure 8 on a fresh Runner simulates its 78 points (13 integer workloads
// × 3 policies × 2 widths) and reads each result straight from its sweep,
// never from a second cache lookup.
func TestColdFig8LooksUpEachPointOnce(t *testing.T) {
	r := NewParallelRunner(Budget{FastForward: 300, Run: 1500}, 2)
	if _, err := r.Fig8(bg); err != nil {
		t.Fatal(err)
	}
	if cs := r.CacheStats(); cs.Executed != 78 || cs.Hits != 0 {
		t.Errorf("cold fig8 CacheStats = %+v, want Executed 78 and Hits 0", cs)
	}
}

func TestProgressCallback(t *testing.T) {
	r := NewRunner(tinyBudget)
	var mu sync.Mutex
	var dones []int
	r.OnProgress(func(done, total int) {
		mu.Lock()
		dones = append(dones, done)
		mu.Unlock()
	})
	w, _ := workloads.ByName("gzip")
	r.Run(w, ooo.Width4())
	r.Run(w, ooo.Width4()) // cache hit: no callback
	r.Run(w, ooo.Width8())
	if len(dones) != 2 {
		t.Fatalf("progress callback fired %d times, want 2", len(dones))
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	r := NewRunner(tinyBudget)
	w, _ := workloads.ByName("bzip2")
	res := r.Run(w, ooo.Width4())
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC = %v", res.IPC)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Error("empty run")
	}
	if res.IntOccupancy < 32 || res.IntOccupancy > 64 {
		t.Errorf("occupancy = %v", res.IntOccupancy)
	}
	if res.AllocToWrite+res.WriteToRead+res.ReadToRelease <= 0 {
		t.Error("no lifetime data")
	}
}

func TestRunProgram(t *testing.T) {
	w, _ := workloads.ByName("gzip")
	res, _, err := RunProgram(bg, ooo.Width4(), w.Build(0), false,
		Budget{FastForward: 100, Run: 2000}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Committed == 0 {
		t.Errorf("empty program run: %+v", res)
	}
}

func TestTable1Static(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"ROB", "512", "scheduler", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	r := NewRunner(tinyBudget)
	intT, fpT, err := r.Fig2(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(intT.Rows) != 13 || len(fpT.Rows) != 14 {
		t.Errorf("fig2 rows: %d int, %d fp", len(intT.Rows), len(fpT.Rows))
	}
	// The last integer column is <=64 bits: must be 100%.
	for _, row := range intT.Rows {
		if row[len(row)-1] != "100.0%" {
			t.Errorf("%s: <=64-bit fraction = %s", row[0], row[len(row)-1])
		}
	}
}

func TestSpeedupTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(Budget{FastForward: 500, Run: 2500})
	// Restrict to a subset by running the full Fig10 at a tiny budget.
	tb, err := r.Fig10(bg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 14 { // 13 benchmarks + average
		t.Fatalf("fig10 rows = %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "average" {
		t.Errorf("last row = %v", last[0])
	}
	if len(tb.Columns) != 8 {
		t.Errorf("fig10 columns = %d", len(tb.Columns))
	}
}

func TestFig9Normalization(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(Budget{FastForward: 200, Run: 1500})
	tb, err := r.Fig9(bg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 27 {
		t.Fatalf("fig9 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "1.00" {
			t.Errorf("%s: PR=40 column = %s, want 1.00", row[0], row[1])
		}
	}
}

func TestExperimentCancellationMidSweep(t *testing.T) {
	// A sweep large enough that cancellation lands mid-flight.
	r := NewRunner(Budget{FastForward: 2000, Run: 50_000})
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := r.Fig8(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled Fig8 returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Fig8 did not return")
	}
}

func TestMeanHelper(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean(nil)")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

func TestShapeChecksMostlyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(Budget{FastForward: 4000, Run: 10000})
	checks, err := r.CheckShapes(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 15 {
		t.Fatalf("only %d shape checks", len(checks))
	}
	pass := 0
	for _, c := range checks {
		if c.Pass {
			pass++
		} else {
			t.Logf("shape check failed (may be budget noise): %s — %s", c.Name, c.Note)
		}
	}
	// At a reduced budget a couple of checks can be noisy, but the bulk
	// must hold or the model has regressed.
	if pass*4 < len(checks)*3 {
		t.Errorf("only %d/%d shape checks passed", pass, len(checks))
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(Budget{FastForward: 300, Run: 1200})
	var sb strings.Builder
	if err := r.WriteReport(bg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 2", "Figure 10", "Shape checklist", "checks passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
