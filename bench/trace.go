package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the index of the enclosing span (-1 for none);
// Worker identifies the simulation worker or client that made the call.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`   // -1 while open
	Parent int    `json:"parent"`
	Worker int    `json:"worker"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs call the same code at the cost of a nil check.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its index (-1 on a nil tracer).
func (t *Tracer) Begin(name string, parent, worker int) int {
	if t == nil {
		return -1
	}
	start := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: -1, Parent: parent, Worker: worker})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.Now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent, worker int, fn func()) {
	id := t.Begin(name, parent, worker)
	fn()
	t.End(id)
}

// Now reads the tracer clock (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Spans snapshots every span, indexed as recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Family selects the closed spans that started in [from, to) and returns
// them with each one's parent as an index into the selection (-1 when the
// parent lies outside it).
func Family(all []Span, from, to int64) (sel []Span, parents []int) {
	idx := make(map[int]int)
	for i, s := range all {
		if s.End >= 0 && s.Start >= from && s.Start < to {
			idx[i] = len(sel)
			sel = append(sel, s)
		}
	}
	parents = make([]int, len(sel))
	for i, j := range idx {
		parents[j] = -1
		if p, ok := idx[all[i].Parent]; ok {
			parents[j] = p
		}
	}
	return sel, parents
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func SelfTimes(spans []Span, parents []int) []time.Duration {
	children := make(map[int][][2]int64)
	for i, p := range parents {
		if p >= 0 {
			c, s := spans[i], spans[p]
			children[p] = append(children[p], [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - time.Duration(unionLen(children[i]))
	}
	return self
}

// unionLen is the total length the intervals cover.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	end := int64(-1 << 62)
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
			end = iv[1]
		}
	}
	return total
}

// Coverage is the share of workers × wall that the spans' self times fill.
func Coverage(spans []Span, parents []int, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range SelfTimes(spans, parents) {
		sum += d
	}
	return float64(sum) / (float64(workers) * float64(wall))
}

// sumByName totals the durations of the spans with the given name.
func sumByName(spans []Span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.Dur()
			n++
		}
	}
	return total, n
}
