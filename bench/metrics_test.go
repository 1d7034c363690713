package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(n=4),
// the rule spreads are judged by against BENCHMARK.json's bounds; the
// expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{10, 2, 7, 7, 1, 9, 4}, [3]float64{2, 7, 9}},
	} {
		q1, q2, q3 := Quartiles(c.data)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
}

// TestTailPercentile checks the rule: the highest candidate percentile with
// at least ten samples ranked beyond it, else the maximum.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 100}, {1, 100},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if got := Percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := Percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCoverageCountsSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	// One worker: a 10ms parent with children at 2-5 and 6-8, then a 3ms
	// root after a 1ms gap: 13ms of 14 covered.
	spans := []Span{
		{Name: "parent", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 2 * ms, End: 5 * ms, Parent: 0},
		{Name: "b", Start: 6 * ms, End: 8 * ms, Parent: 0},
		{Name: "later", Start: 11 * ms, End: 14 * ms, Parent: -1},
		{Name: "open", Start: 12 * ms, End: -1, Parent: -1},
	}
	sel, parents := Family(spans, 0, 20*ms)
	if len(sel) != 4 {
		t.Fatalf("Family kept %d spans, want the 4 closed ones", len(sel))
	}
	self := SelfTimes(sel, parents)
	if want := []time.Duration{5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}; !equalDurations(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := Coverage(sel, parents, 1, 14*time.Millisecond); got < 0.928 || got > 0.929 {
		t.Fatalf("coverage %v, want 13/14", got)
	}
	// A window that cuts the parent off turns its children into roots.
	sel, parents = Family(spans, 1*ms, 9*ms)
	if len(sel) != 2 || parents[0] != -1 || parents[1] != -1 {
		t.Fatalf("windowed family %v with parents %v", sel, parents)
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which describes the
// benchmark to whoever runs it, in step with the metrics and workloads the
// code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	if len(spec.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(EndToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(PerLayer))
	}
	for i, m := range spec.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
}
