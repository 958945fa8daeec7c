package core

import (
	"math"
	"testing"

	"sudaf/internal/storage"
)

// Degenerate table sizes end-to-end: zero-row, single-row and tiny
// tables must answer identically in every execution mode, with the
// conventional empty-aggregate shapes on a table that has no rows.

func tinyTable(rows int) *storage.Table {
	tbl := storage.NewTable("tiny",
		storage.NewColumn("g", storage.KindInt),
		storage.NewColumn("v", storage.KindFloat))
	for i := 0; i < rows; i++ {
		tbl.Col("g").AppendInt(int64(i % 2))
		tbl.Col("v").AppendFloat(float64(i) + 0.25)
	}
	tbl.Seal()
	return tbl
}

// queryAllModes runs q on a fresh session per mode over tbl and returns
// the results in Baseline, Rewrite, Share order.
func queryAllModes(t *testing.T, tbl *storage.Table, q string) []*Result {
	t.Helper()
	var out []*Result
	for _, mode := range []Mode{ModeBaseline, ModeRewrite, ModeShare} {
		s := NewSession(Options{Workers: 2})
		if err := s.Register(tbl); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(q, mode)
		if err != nil {
			t.Fatalf("rows=%d %v %s: %v", tbl.NumRows(), mode, q, err)
		}
		out = append(out, res)
	}
	return out
}

func TestTinyTableModesAgree(t *testing.T) {
	for _, rows := range []int{0, 1, 3, 7} {
		tbl := tinyTable(rows)
		for _, q := range []string{
			`SELECT count(), sum(v), min(v), max(v), avg(v) FROM tiny;`,
			`SELECT g, sum(v), stddev(v) FROM tiny GROUP BY g ORDER BY g;`,
		} {
			res := queryAllModes(t, tbl, q)
			for _, r := range res[1:] {
				tablesBitIdentical(t, res[0].Table, r.Table, q)
			}
		}
	}
}

func TestZeroRowTable(t *testing.T) {
	q := `SELECT count(), sum(v), min(v), max(v) FROM tiny;`
	for _, res := range queryAllModes(t, tinyTable(0), q) {
		// The conventional empty-aggregate shapes: count 0 and a min
		// that is not a spurious finite value.
		if n := res.Table.Cols[0].AsFloat(0); n != 0 {
			t.Fatalf("count over empty table = %v", n)
		}
		if mn := res.Table.Cols[2].AsFloat(0); !math.IsInf(mn, 1) && !math.IsNaN(mn) {
			t.Fatalf("min over empty table = %v, want +Inf or NaN", mn)
		}
	}
}
