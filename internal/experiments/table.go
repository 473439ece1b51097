package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// Title identifies the experiment ("Fig 2b: ...").
	Title string
	// Header names the columns.
	Header []string
	// Rows hold formatted cells; each row matches Header's length.
	Rows [][]string
	// Notes are printed under the table (caveats, paper reference values).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(width) {
				pad = width[i] - len(c)
			}
			// Right-align numbers (all but the first column).
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", line(t.Header)); err != nil {
		return err
	}
	total := len(width) - 1
	for _, wd := range width {
		total += wd + 1
	}
	if _, err := fmt.Fprintf(w, "%s\n", strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "%s\n", line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV exports the table (header + rows; title and notes as comment
// records prefixed with '#') for external plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f1 formats a float with one decimal, f2 with two, f3 with three.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Tables returns an experiment result's printable tables in print order.
func (r *MotivationalResult) Tables() []*Table { return []*Table{r.Table} }
func (r *Sec52Result) Tables() []*Table        { return []*Table{r.Table} }
func (r *ImpactResult) Tables() []*Table       { return []*Table{r.RejectionTable, r.EnergyTable} }
func (r *SweepResult) Tables() []*Table        { return []*Table{r.Table} }
func (r *AblationResult) Tables() []*Table     { return []*Table{r.Table} }
func (r *LookaheadResult) Tables() []*Table    { return []*Table{r.Table} }
func (r *OnlineResult) Tables() []*Table       { return []*Table{r.Table} }
func (r *LoadSurfaceResult) Tables() []*Table  { return []*Table{r.Table} }
func (r *ScaleSweepResult) Tables() []*Table   { return []*Table{r.Table} }
