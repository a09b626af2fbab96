package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"rheem/internal/data"
)

// encode returns the records' canonical binary encoding.
func encode(recs []data.Record) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameBytes reports whether got and want encode to identical bytes.
func sameBytes(got, want []data.Record) error {
	g, err := encode(got)
	if err != nil {
		return err
	}
	w, err := encode(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("output differs: %d records (%d bytes), want %d records (%d bytes)%s",
			len(got), len(g), len(want), len(w), firstDiff(got, want))
	}
	return nil
}

// firstDiff describes the first record where got and want differ.
func firstDiff(got, want []data.Record) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i].String() != want[i].String() {
			return fmt.Sprintf("; record %d is %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// exactly returns a check demanding byte-identical output.
func exactly(want []data.Record) func([]data.Record) error {
	return func(got []data.Record) error { return sameBytes(got, want) }
}

// sortedByKey returns a copy of recs ordered by their first field.
func sortedByKey(recs []data.Record) []data.Record {
	out := append([]data.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return data.Compare(out[i].Field(0), out[j].Field(0)) < 0 })
	return out
}

// approxEqual compares two record lists field by field, allowing floats
// (also inside vectors) a relative difference of tol. It serves outputs
// whose float sums depend on the order a platform folds in.
func approxEqual(got, want []data.Record, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d records, want %d", len(got), len(want))
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Len() != w.Len() {
			return fmt.Errorf("record %d has %d fields, want %d", i, g.Len(), w.Len())
		}
		for f := 0; f < g.Len(); f++ {
			gv, wv := g.Field(f), w.Field(f)
			if gv.Kind() != wv.Kind() {
				return fmt.Errorf("record %d field %d is %s, want %s", i, f, gv, wv)
			}
			ok := true
			switch gv.Kind() {
			case data.KindFloat:
				ok = close(gv.Float(), wv.Float())
			case data.KindVector:
				gx, wx := gv.Vec(), wv.Vec()
				ok = len(gx) == len(wx)
				for j := 0; ok && j < len(gx); j++ {
					ok = close(gx[j], wx[j])
				}
			default:
				ok = data.Compare(gv, wv) == 0
			}
			if !ok {
				return fmt.Errorf("record %d field %d is %s, want %s", i, f, gv, wv)
			}
		}
	}
	return nil
}
