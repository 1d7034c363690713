package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"prisim"
	"prisim/internal/stats"
	"prisim/prisimclient"
)

// NormalizeMatrix fills a matrix's defaulted dimensions with their explicit
// values: widths [4], phys_regs [0] (machine default), and the universal
// measurement-budget defaults. It drops repeated widths and phys_regs, the
// first occurrence of each staying in place, so every expanded point is
// distinct. Content hashing, expansion, and durable records all operate on
// the normalized form, so a spec and its explicit-default spelling are the
// same matrix.
func NormalizeMatrix(m prisimclient.Matrix) prisimclient.Matrix {
	m.Widths = distinct(m.Widths, 4)
	m.PhysRegs = distinct(m.PhysRegs, 0)
	if m.FastForward == 0 {
		m.FastForward = prisim.DefaultFastForward
	}
	if m.Run == 0 {
		m.Run = prisim.DefaultRun
	}
	return m
}

// distinct returns vals without repeats in a new slice, or [def] when vals
// is empty.
func distinct(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// MatrixID derives a matrix's durable identity: "mx-" plus the leading hex
// of the SHA-256 digest of (kernel version, normalized spec). Identical
// specs — submitted by any client, before or after a coordinator restart —
// collapse onto one ID, which is what lets duplicate submissions coalesce
// instead of recomputing.
func MatrixID(kernelVersion string, m prisimclient.Matrix) string {
	m = NormalizeMatrix(m)
	h := sha256.New()
	fmt.Fprintf(h, "prisim-matrix-v1\nkernel=%s\n", kernelVersion)
	for _, b := range m.Benchmarks {
		fmt.Fprintf(h, "bench=%s\n", b)
	}
	for _, p := range m.Policies {
		fmt.Fprintf(h, "policy=%s\n", p)
	}
	for _, w := range m.Widths {
		fmt.Fprintf(h, "width=%d\n", w)
	}
	for _, n := range m.PhysRegs {
		fmt.Fprintf(h, "phys_regs=%d\n", n)
	}
	fmt.Fprintf(h, "fast_forward=%d\nrun=%d\n", m.FastForward, m.Run)
	return "mx-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Expand expands a matrix into its simulate points in canonical order —
// width-major, then phys-regs, benchmark, policy — each carrying an
// explicit budget and its content-hash CacheKey. The order is part of the
// wire contract: tables assemble rows and columns from the same iteration,
// so a fabric run and a single-node run produce byte-identical output.
func Expand(kernelVersion string, m prisimclient.Matrix) []prisimclient.JobRequest {
	m = NormalizeMatrix(m)
	out := make([]prisimclient.JobRequest, 0, len(m.Widths)*len(m.PhysRegs)*len(m.Benchmarks)*len(m.Policies))
	for _, width := range m.Widths {
		for _, prs := range m.PhysRegs {
			for _, bench := range m.Benchmarks {
				for _, pol := range m.Policies {
					req := prisimclient.JobRequest{
						Kind:        prisimclient.KindSimulate,
						Benchmark:   bench,
						Width:       width,
						Policy:      pol,
						PhysRegs:    prs,
						FastForward: m.FastForward,
						Run:         m.Run,
					}
					req.CacheKey = prisimclient.CacheKeyFor(kernelVersion, req)
					out = append(out, req)
				}
			}
		}
	}
	return out
}

// ValidateMatrix checks the spec's shape, then has the engine validate
// each benchmark and each policy, so a bad matrix fails at submit rather
// than inside a worker.
func ValidateMatrix(m prisimclient.Matrix) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for _, b := range m.Benchmarks {
		if err := (prisim.Options{Benchmark: b}).Validate(); err != nil {
			return err
		}
	}
	for _, p := range m.Policies {
		if err := (prisim.Options{Policy: prisim.Policy(p)}).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// matrixMetrics are the per-point values a matrix table reports, one table
// block per metric: IPC (the headline comparison) and total register
// lifetime (the paper's Figure 8 axis).
var matrixMetrics = []struct {
	name string
	cell func(prisim.Result) string
}{
	{"IPC", func(r prisim.Result) string { return stats.F(r.IPC, 3) }},
	{"avg register lifetime (cycles)", func(r prisim.Result) string {
		return stats.F(r.AllocToWrite+r.WriteToRead+r.ReadToRelease, 1)
	}},
}

// AssembleTables renders a matrix's experiment tables — one table per
// (metric, width, phys-regs) combination, benchmarks as rows and policies
// as columns — from per-point results looked up by cache key. Assembly is
// a pure function of (spec, results): the coordinator uses it over its
// store, and the byte-identity tests use it over direct Engine runs.
func AssembleTables(kernelVersion string, m prisimclient.Matrix, get func(cacheKey string) (prisim.Result, bool)) ([]prisim.Table, error) {
	m = NormalizeMatrix(m)
	var tables []prisim.Table
	for _, metric := range matrixMetrics {
		for _, width := range m.Widths {
			for _, prs := range m.PhysRegs {
				prsLabel := "default"
				if prs != 0 {
					prsLabel = fmt.Sprintf("%d", prs)
				}
				t := prisim.Table{
					Title:   fmt.Sprintf("Fabric matrix: %s by policy (width %d, PRs %s, ff %d, run %d)", metric.name, width, prsLabel, m.FastForward, m.Run),
					Columns: append([]string{"bench"}, m.Policies...),
				}
				for _, bench := range m.Benchmarks {
					row := []string{bench}
					for _, pol := range m.Policies {
						req := prisimclient.JobRequest{
							Kind: prisimclient.KindSimulate, Benchmark: bench,
							Width: width, Policy: pol, PhysRegs: prs,
							FastForward: m.FastForward, Run: m.Run,
						}
						key := prisimclient.CacheKeyFor(kernelVersion, req)
						res, ok := get(key)
						if !ok {
							return nil, fmt.Errorf("missing result for point %s/%s width=%d prs=%d (key %.12s...)", bench, pol, width, prs, key)
						}
						row = append(row, metric.cell(res))
					}
					t.Rows = append(t.Rows, row)
				}
				tables = append(tables, t)
			}
		}
	}
	return tables, nil
}
