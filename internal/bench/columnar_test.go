package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rheem/internal/core/executor"
	"rheem/internal/data"
)

func colRecordBytes(t *testing.T, recs []data.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := data.WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarSpeedup is E13's acceptance gate on the hot-path chain:
// the batch path must produce byte-identical results to the row path
// and be meaningfully faster on wall clock. The gate here is a
// conservative 1.5× at a mid size so it holds under the race detector
// and on loaded CI boxes; the full ≥2× at 1M rows is demonstrated by
// `rheem-bench -experiment columnar` (E13).
func TestColumnarSpeedup(t *testing.T) {
	const rows, reps = 200_000, 3
	recs := ColumnarRecords(rows)
	run := func(batch bool) *executor.Result {
		t.Helper()
		ctx, err := NewColumnarContext(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		res, err := RunColumnarTraced(ctx, nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	best := func(batch bool) (*executor.Result, time.Duration) {
		runtime.GC()
		res := run(batch)
		min := res.Metrics.Wall
		for i := 1; i < reps; i++ {
			runtime.GC()
			if r := run(batch); r.Metrics.Wall < min {
				res, min = r, r.Metrics.Wall
			}
		}
		return res, min
	}

	row, rowWall := best(false)
	col, colWall := best(true)
	if !bytes.Equal(colRecordBytes(t, row.Records), colRecordBytes(t, col.Records)) {
		t.Errorf("batch path records differ from row path:\n  row   %v\n  batch %v", row.Records, col.Records)
	}
	speedup := float64(rowWall) / float64(colWall)
	t.Logf("wall: row %v, batch %v — %.2fx at %d rows", rowWall, colWall, speedup, rows)
	if speedup < 1.5 {
		t.Errorf("batch path speedup %.2fx, want ≥1.5x (row %v, batch %v)", speedup, rowWall, colWall)
	}
}

// TestColumnarQuick smoke-runs the registered experiment end to end at
// the quick scale, as every registered experiment must support.
func TestColumnarQuick(t *testing.T) {
	tables, err := columnar(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("columnar experiment produced no table rows: %v", tables)
	}
}
