package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders aligned plain-text tables for the experiment harness. Rows
// are added left to right; cells are stringified with %v. The zero value is
// not useful; construct with NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Missing cells render empty; extra cells widen the
// table.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	totalWidth := 0
	for _, wd := range widths {
		totalWidth += wd + 2
	}
	if totalWidth < len(t.title) {
		totalWidth = len(t.title)
	}

	if t.title != "" {
		fmt.Fprintln(w, t.title)
		fmt.Fprintln(w, strings.Repeat("=", totalWidth))
	}
	if len(t.headers) > 0 {
		for i := 0; i < ncols; i++ {
			h := ""
			if i < len(t.headers) {
				h = t.headers[i]
			}
			fmt.Fprintf(w, "%-*s", widths[i]+2, h)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, strings.Repeat("-", totalWidth))
	}
	for _, r := range t.rows {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Ratio formats a/b as a "x.xx×" factor string, guarding division by zero.
func Ratio(a, b uint64) string {
	if b == 0 {
		if a == 0 {
			return "1.00x"
		}
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

// Pct formats part/whole as a percentage string, guarding division by zero.
func Pct(part, whole uint64) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}
