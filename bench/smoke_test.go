package bench

import (
	"context"
	"io"
	"os"
	"testing"
)

// TestWorkloadsSmoke runs every workload at a tiny budget, untraced and
// traced, and requires every correctness gate to pass and every metric
// the mode promises to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rec, err := Run(context.Background(), Config{
					Workload: w.Name, Seed: 3, Seconds: 0.5, Trace: trace,
					WorkDir: t.TempDir(), Tiny: true, Log: testLog(t),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
				}
				defs := EndToEnd
				if trace {
					defs = PerLayer
				}
				if len(rec.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rec.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Fatalf("metric %s missing or in the wrong unit: %+v", d.Name, v)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// testLog shows a run's progress notes when PRIBENCH_VERBOSE is set.
func testLog(t *testing.T) io.Writer {
	if os.Getenv("PRIBENCH_VERBOSE") == "" {
		return nil
	}
	return logWriter{t}
}
