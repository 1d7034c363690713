package fabric

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"prisim"
	"prisim/prisimclient"
)

// TestMatrixIDPinned pins two matrix identities. The store records matrices
// by ID and a restarted coordinator replays them under the IDs their specs
// hash to, so a spec may never change its ID.
func TestMatrixIDPinned(t *testing.T) {
	for _, c := range []struct {
		spec prisimclient.Matrix
		want string
	}{
		{prisimclient.Matrix{
			Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"base", "er"},
			Widths: []int{4, 8}, PhysRegs: []int{0, 96}, FastForward: 300, Run: 1500,
		}, "mx-b22bff91d478a3a2"},
		{prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base"}}, "mx-1ced9ba47d873c5f"},
	} {
		if got := MatrixID("v9.9.9-test", c.spec); got != c.want {
			t.Errorf("MatrixID(%+v) = %s, want %s", c.spec, got, c.want)
		}
	}
}

// TestValidateMatrixAsksTheEngine checks that ValidateMatrix rejects an
// unknown benchmark or policy with the engine's own error, and rejects the
// empty names the engine would read as its defaults.
func TestValidateMatrixAsksTheEngine(t *testing.T) {
	ok := prisimclient.Matrix{Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"base", "pri+er"}}
	if err := ValidateMatrix(ok); err != nil {
		t.Fatalf("ValidateMatrix(%+v) = %v", ok, err)
	}
	for _, c := range []struct {
		spec prisimclient.Matrix
		want error // nil: any error
	}{
		{prisimclient.Matrix{Benchmarks: []string{"gzip", "quake3"}, Policies: ok.Policies}, prisim.ErrUnknownBenchmark},
		{prisimclient.Matrix{Benchmarks: ok.Benchmarks, Policies: []string{"base", "magic"}}, prisim.ErrUnknownPolicy},
		{prisimclient.Matrix{Benchmarks: []string{"gzip", ""}, Policies: ok.Policies}, nil},
		{prisimclient.Matrix{Benchmarks: ok.Benchmarks, Policies: []string{"base", ""}}, nil},
	} {
		err := ValidateMatrix(c.spec)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("ValidateMatrix(%+v) = %v, want %v", c.spec, err, c.want)
		}
	}
}

// FuzzMatrix decodes a spec over a one-point base matrix. For every spec
// ValidateMatrix accepts, normalizing must be idempotent and keep the
// MatrixID, and a spec within the point limit must expand to distinct
// points from which AssembleTables renders every table.
func FuzzMatrix(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"widths":[4,8,4],"phys_regs":[0,96,96]}`,
		`{"benchmarks":["gzip","mcf"],"policies":["base","er","pri+er"],"widths":[8,4],"phys_regs":[64,0,48],"fast_forward":300,"run":1500}`,
		`{"benchmarks":["gzip",""]}`,
		`{"policies":["base",""]}`,
		`{"widths":[]}`,
	} {
		f.Add([]byte(seed))
	}
	const kernel = "v9.9.9-test"
	f.Fuzz(func(t *testing.T, data []byte) {
		m := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base"}}
		if json.Unmarshal(data, &m) != nil || ValidateMatrix(m) != nil {
			return
		}
		norm := NormalizeMatrix(m)
		if again := NormalizeMatrix(norm); !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalizing twice gives %+v, once %+v", again, norm)
		}
		if id, want := MatrixID(kernel, norm), MatrixID(kernel, m); id != want {
			t.Fatalf("normalized spec hashes to %s, the spec to %s", id, want)
		}
		if len(norm.Benchmarks)*len(norm.Policies)*len(norm.Widths)*len(norm.PhysRegs) > maxPoints {
			return
		}
		keys := make(map[string]bool)
		for _, req := range Expand(kernel, m) {
			if keys[req.CacheKey] {
				t.Fatalf("%+v expands to point %+v twice", m, req)
			}
			keys[req.CacheKey] = true
		}
		tables, err := AssembleTables(kernel, m, func(key string) (prisim.Result, bool) {
			return prisim.Result{}, keys[key]
		})
		if err != nil {
			t.Fatalf("AssembleTables over the expanded points: %v", err)
		}
		if want := len(matrixMetrics) * len(norm.Widths) * len(norm.PhysRegs); len(tables) != want {
			t.Fatalf("%d tables, want %d", len(tables), want)
		}
	})
}
