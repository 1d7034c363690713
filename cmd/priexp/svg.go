package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"prisim"
	"prisim/internal/plot"
	"prisim/internal/stats"
)

// writeSVGs renders the figure-shaped experiments as SVG files in dir.
// Table-shaped output (table1) has no chart form and is skipped.
func writeSVGs(dir, name string, tables []prisim.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		chart, err := chartFor(name, &t)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if chart == nil {
			continue
		}
		file := name
		if len(tables) > 1 {
			file = fmt.Sprintf("%s-%d", name, i+1)
		}
		path := filepath.Join(dir, file+".svg")
		if err := os.WriteFile(path, []byte(chart.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

func chartFor(name string, t *stats.Table) (*plot.Chart, error) {
	switch name {
	case "table1":
		return nil, nil
	case "table2":
		ft := filterCols(t, 0, 2, 3, 4, 5) // drop the class column
		c, err := plot.FromTable(ft, "IPC", false, false)
		if err != nil {
			return nil, err
		}
		c.YMin = 0
		return c, nil
	case "fig1", "fig8":
		// Stack the 4-wide phase columns (the 8-wide half mirrors them).
		ft := filterCols(t, 0, 1, 2, 3)
		c, err := plot.FromTable(ft, "cycles", false, true)
		if err != nil {
			return nil, err
		}
		c.YMin = 0
		return c, nil
	case "fig2":
		// Rows are benchmarks, columns are widths: transpose so the x axis
		// is the bit budget and each benchmark is a line, as in the paper.
		c, err := plot.FromTable(transpose(t), "cumulative % of operands", true, false)
		if err != nil {
			return nil, err
		}
		c.YMin = 0
		return c, nil
	case "fig9":
		c, err := plot.FromTable(transpose(t), "speedup vs PR=40", true, false)
		if err != nil {
			return nil, err
		}
		c.YMin = 1
		return c, nil
	case "fig10", "fig12":
		c, err := plot.FromTable(t, "IPC / base IPC", false, false)
		if err != nil {
			return nil, err
		}
		c.YMin = 0.9
		return c, nil
	case "fig11":
		c, err := plot.FromTable(t, "avg occupied registers", false, false)
		if err != nil {
			return nil, err
		}
		c.YMin = 30
		return c, nil
	default: // ablations: simple grouped bars
		c, err := plot.FromTable(t, "", false, false)
		if err != nil {
			return nil, err
		}
		c.YMin = math.NaN()
		return c, nil
	}
}

// filterCols builds a new table keeping only the named column indices.
func filterCols(t *stats.Table, keep ...int) *stats.Table {
	out := &stats.Table{Title: t.Title}
	for _, k := range keep {
		out.Columns = append(out.Columns, t.Columns[k])
	}
	for _, row := range t.Rows {
		cells := make([]string, 0, len(keep))
		for _, k := range keep {
			if k < len(row) {
				cells = append(cells, row[k])
			} else {
				cells = append(cells, "")
			}
		}
		out.AddRow(cells...)
	}
	return out
}

// transpose swaps rows and columns: row labels become column headers.
func transpose(t *stats.Table) *stats.Table {
	out := &stats.Table{Title: t.Title, Columns: []string{t.Columns[0]}}
	for _, row := range t.Rows {
		out.Columns = append(out.Columns, row[0])
	}
	for c := 1; c < len(t.Columns); c++ {
		cells := []string{strings.TrimSpace(t.Columns[c])}
		for _, row := range t.Rows {
			if c < len(row) {
				cells = append(cells, row[c])
			} else {
				cells = append(cells, "")
			}
		}
		out.AddRow(cells...)
	}
	return out
}
