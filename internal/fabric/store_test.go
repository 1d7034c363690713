package fabric

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prisim"
	"prisim/prisimclient"
)

func testEntry(key, by string) Entry {
	return Entry{
		Key:        key,
		Kernel:     prisim.Version,
		ComputedBy: by,
		Created:    time.Unix(1700000000, 0).UTC(),
		Request:    prisimclient.JobRequest{Kind: prisimclient.KindSimulate, Benchmark: "gzip", Policy: "er"},
		Result:     prisim.Result{Benchmark: "gzip", IPC: 1.25, Committed: 1500},
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("k1", "w1")
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("mx-1", prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"er"}}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("k1")
	if !ok {
		t.Fatal("entry k1 lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entry changed across reopen:\n got %+v\nwant %+v", got, want)
	}
	mats := s2.Matrices()
	if len(mats) != 1 || mats[0].ID != "mx-1" {
		t.Errorf("matrices after reopen = %+v, want one mx-1", mats)
	}
}

// TestStoreReplaysLegacyMatrixDone opens a log written before the store
// dropped its matrix_done record: replay skips the line without truncating
// the log, and later appends land after it and survive another reopen.
func TestStoreReplaysLegacyMatrixDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k1", "w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("mx-1", prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"er"}}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"matrix_done","matrix_id":"mx-1"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("reopen truncated the log: size %d -> %v (%v)", before.Size(), after.Size(), err)
	}
	if _, ok := s2.Get("k1"); !ok {
		t.Error("entry k1 lost")
	}
	if mats := s2.Matrices(); len(mats) != 1 || mats[0].ID != "mx-1" {
		t.Errorf("matrices = %+v, want mx-1", mats)
	}
	if err := s2.Put(testEntry("k2", "w2")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Errorf("second reopen holds %d entries, want k1 and k2", s3.Len())
	}
}

func TestStoreFirstWriteWins(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	first := testEntry("k", "w1")
	second := testEntry("k", "w2")
	if err := s.Put(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(second); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("k")
	if got.ComputedBy != "w1" {
		t.Errorf("ComputedBy = %q, want first writer w1", got.ComputedBy)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStoreRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k1", "w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k2", "w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, incomplete final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"result","entry":{"key":"k3","ker`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("Len after torn-tail repair = %d, want 2", s2.Len())
	}
	if _, ok := s2.Get("k3"); ok {
		t.Error("torn entry k3 should not have been replayed")
	}
	// The truncated log must accept clean appends and survive another cycle.
	if err := s2.Put(testEntry("k4", "w2")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Errorf("Len after repair+append+reopen = %d, want 3", s3.Len())
	}
}

func TestStoreHitMissCounters(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	s.Get("absent")
	if err := s.Put(testEntry("k", "w1")); err != nil {
		t.Fatal(err)
	}
	s.Get("k")
	entries, hits, misses := s.Stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Errorf("Stats = (%d, %d, %d), want (1, 1, 1)", entries, hits, misses)
	}
}

func TestMatrixIDIsContentDerived(t *testing.T) {
	a := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"}}
	b := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"}, Widths: []int{4}}
	if MatrixID("v1", a) != MatrixID("v1", b) {
		t.Error("explicit-default spelling must hash identically to the defaulted spec")
	}
	c := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"er", "base"}}
	if MatrixID("v1", a) == MatrixID("v1", c) {
		t.Error("different policy order is a different matrix (column order matters)")
	}
	if MatrixID("v1", a) == MatrixID("v2", a) {
		t.Error("kernel version must be folded into the matrix identity")
	}
}

func TestExpandKeysMatchClientHash(t *testing.T) {
	m := NormalizeMatrix(prisimclient.Matrix{
		Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"base", "er"},
		FastForward: 300, Run: 1500,
	})
	reqs := Expand(prisim.Version, m)
	if len(reqs) != 4 {
		t.Fatalf("expanded %d points, want 4", len(reqs))
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.CacheKey != prisimclient.CacheKeyFor(prisim.Version, r) {
			t.Errorf("point %s/%s carries a key that does not match CacheKeyFor", r.Benchmark, r.Policy)
		}
		if seen[r.CacheKey] {
			t.Errorf("duplicate cache key for %s/%s", r.Benchmark, r.Policy)
		}
		seen[r.CacheKey] = true
	}
}
