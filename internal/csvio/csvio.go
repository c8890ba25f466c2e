// Package csvio loads and dumps ads records as CSV, the interchange
// format for the "adding a new ads domain" workflow of Sec. 4.6: raw
// ads arrive as a CSV extraction, a schema is inferred or supplied,
// and the records are bulk-loaded into a domain table.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqldb"
)

// ReadRecords parses CSV from r into attribute → value maps. The
// first row is the header. Cells that parse as numbers become numeric
// values; empty cells become NULL (omitted); everything else is a
// lower-cased string.
func ReadRecords(r io.Reader) ([]map[string]sqldb.Value, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	for i := range header {
		header[i] = strings.ToLower(strings.TrimSpace(header[i]))
		if header[i] == "" {
			return nil, fmt.Errorf("csvio: empty column name at position %d", i)
		}
	}
	var out []map[string]sqldb.Value
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		rec := make(map[string]sqldb.Value, len(header))
		for i, cell := range row {
			if i >= len(header) {
				return nil, fmt.Errorf("csvio: line %d has %d cells, header has %d", line, len(row), len(header))
			}
			cell = strings.TrimSpace(cell)
			if cell == "" {
				continue
			}
			rec[header[i]] = parseCell(cell)
		}
		out = append(out, rec)
	}
	return out, nil
}

// parseCell converts a CSV cell to a Value, preferring numbers. Cells
// ParseFloat reads as NaN or ±Inf ("nan", "Infinity") stay strings: no
// ad field is a non-finite number.
func parseCell(cell string) sqldb.Value {
	if n, err := strconv.ParseFloat(strings.ReplaceAll(cell, ",", ""), 64); err == nil && !math.IsNaN(n) && !math.IsInf(n, 0) {
		return sqldb.Number(n)
	}
	return sqldb.String(cell)
}

// LoadTable bulk-inserts CSV records from r into a fresh table for s,
// registered in db. Records with columns outside the schema are
// rejected with the offending line.
func LoadTable(db *sqldb.DB, s *schema.Schema, r io.Reader) (*sqldb.Table, error) {
	records, err := ReadRecords(r)
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable(s)
	if err != nil {
		return nil, err
	}
	for i, rec := range records {
		if _, err := tbl.Insert(rec); err != nil {
			return nil, fmt.Errorf("csvio: record %d: %w", i+1, err)
		}
	}
	return tbl, nil
}

// WriteTable dumps every record of tbl as CSV with a header row in
// the schema's attribute order. NULLs render as empty cells.
func WriteTable(w io.Writer, tbl *sqldb.Table) error {
	cw := csv.NewWriter(w)
	s := tbl.Schema()
	header := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csvio: writing header: %w", err)
	}
	row := make([]string, len(header))
	for _, id := range tbl.AllRowIDs() {
		rec, _ := tbl.Get(id)
		for i := range header {
			v := rec.Values[i]
			if v.IsNull() {
				row[i] = ""
			} else {
				row[i] = v.String()
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("csvio: writing record %d: %w", id, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
