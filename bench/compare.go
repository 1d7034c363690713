package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row compares one end-to-end metric on one workload across two sets of
// runs. Quartiles are Python's statistics.quantiles(n=4) cut points;
// Spread is the wider side's quartile distance as a share of its median.
type Row struct {
	Workload, Metric, Unit string
	Parent, Change         [3]float64 // q1, median, q3
	NParent, NChange       int
	Spread                 float64
	Bound                  float64
	Verdict                string
}

// ReadRecords reads a file of JSON records, one per line, as -out writes.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Compare judges every end-to-end metric of every workload present in
// both sets of untraced runs. A metric whose run-to-run spread on either
// side exceeds its bound is unresolved, unless every change run reads
// better than every parent run. Otherwise it is worse when the change's
// median is worse than the parent's by more than the bound, and improved
// when the change wins at least nine in ten runs paired in order and the
// medians differ by more than the parent's quartile distance.
func Compare(parent, change []Record) []Row {
	byWorkload := func(recs []Record) map[string][]Record {
		m := map[string][]Record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ps, cs := byWorkload(parent), byWorkload(change)
	var rows []Row
	for _, w := range Workloads {
		if len(ps[w.Name]) == 0 || len(cs[w.Name]) == 0 {
			continue
		}
		for _, d := range EndToEnd {
			p, c := values(ps[w.Name], d.Name), values(cs[w.Name], d.Name)
			rows = append(rows, judge(w.Name, d, p, c))
		}
	}
	return rows
}

func values(recs []Record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func judge(workload string, d MetricDef, p, c []float64) Row {
	row := Row{Workload: workload, Metric: d.Name, Unit: d.Unit, NParent: len(p), NChange: len(c), Bound: d.Bound, Verdict: Unresolved}
	if len(p) < 2 || len(c) < 2 {
		return row
	}
	row.Parent[0], row.Parent[1], row.Parent[2] = Quartiles(p)
	row.Change[0], row.Change[1], row.Change[2] = Quartiles(c)
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }
	row.Spread = max(spread(row.Parent), spread(row.Change))
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pm, cm := row.Parent[1], row.Change[1]
	worseBy := ratio(cm-pm, pm)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv)
		}
	}
	wins, pairs := 0, min(len(p), len(c))
	for i := range pairs {
		if better(c[i], p[i]) {
			wins++
		}
	}
	switch {
	case row.Spread > d.Bound:
		if allBetter {
			row.Verdict = Improved
		}
	case worseBy > d.Bound:
		row.Verdict = Worse
	case better(cm, pm) && 10*wins >= 9*pairs && abs(cm-pm) > row.Parent[2]-row.Parent[0]:
		row.Verdict = Improved
	default:
		row.Verdict = Unchanged
	}
	return row
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
