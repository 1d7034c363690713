package bench

import "testing"

// records builds untraced paper-figures records whose end-to-end metrics
// all read the given values, one record per value.
func records(vals ...float64) []Record {
	var out []Record
	for _, v := range vals {
		m := map[string]Value{}
		for _, d := range EndToEnd {
			m[d.Name] = Value{v, d.Unit}
		}
		out = append(out, Record{Workload: "paper-figures", Metrics: m})
	}
	return out
}

func verdicts(parent, change []Record) map[string]string {
	out := map[string]string{}
	for _, row := range Compare(parent, change) {
		out[row.Metric] = row.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := records(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change []Record
		// verdicts for a lower-is-better metric (wall_s) and a
		// higher-is-better one (ops_per_s), both bounded at 25%
		lower, higher string
	}{
		{"same", records(100, 99, 101, 100, 100, 101, 99, 100, 102, 98), Unchanged, Unchanged},
		{"within the bound", records(105, 106, 104, 105, 105, 106, 104, 105, 105, 105), Unchanged, Improved},
		{"past the bound", records(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), Worse, Improved},
		{"much lower", records(70, 71, 69, 70, 72, 68, 70, 71, 69, 70), Improved, Worse},
		{"too noisy", records(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), Unresolved, Unresolved},
		{"noisy but every run lower", records(50, 90, 60, 85, 70, 55, 95, 65, 75, 80), Improved, Unresolved},
		{"one run a side", records(100), Unresolved, Unresolved},
	} {
		v := verdicts(steady, c.change)
		if v["wall_s"] != c.lower || v["ops_per_s"] != c.higher {
			t.Errorf("%s: wall_s %s (want %s), ops_per_s %s (want %s)", c.name, v["wall_s"], c.lower, v["ops_per_s"], c.higher)
		}
	}
}

func TestCompareSkipsTracedAndMissingWorkloads(t *testing.T) {
	traced := records(100, 100)
	for i := range traced {
		traced[i].Trace = true
	}
	if rows := Compare(records(100, 100), traced); len(rows) != 0 {
		t.Fatalf("compared traced records: %+v", rows)
	}
	other := records(100, 100)
	for i := range other {
		other[i].Workload = "service-mix"
	}
	if rows := Compare(records(100, 100), other); len(rows) != 0 {
		t.Fatalf("compared different workloads: %+v", rows)
	}
}
