package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"sudaf/internal/server/client"
	"sudaf/internal/storage"
)

func accOf(keep bool, xs ...float64) *acc {
	a := &acc{keep: keep}
	for _, x := range xs {
		a.add(x)
	}
	if keep {
		a.seal()
	}
	return a
}

// On {1, 2, 3, 4} every statistic has a closed form.
func TestAccStatisticsByHand(t *testing.T) {
	a := accOf(false, 1, 2, 3, 4)
	want := map[string]float64{
		"count":    4,
		"min":      1,
		"max":      4,
		"sum":      10,
		"avg":      2.5,
		"var":      1.25,
		"std":      math.Sqrt(1.25),
		"qm":       math.Sqrt(7.5),
		"cm":       math.Cbrt(25),
		"gm":       math.Pow(24, 0.25),
		"hm":       1.92,
		"skewness": 0,
		"kurtosis": 1.64,
	}
	for agg, v := range want {
		if err := a.check(agg, v); err != nil {
			t.Errorf("%s = %v rejected: %v", agg, v, err)
		}
		wrong := v*(1+1e-6) + 1e-6
		if err := a.check(agg, wrong); err == nil {
			t.Errorf("%s = %v accepted, want %v", agg, wrong, v)
		}
		if err := a.check(agg, math.NaN()); err == nil {
			t.Errorf("%s = NaN accepted", agg)
		}
	}
	if err := a.check("gm", math.Inf(1)); err == nil {
		t.Error("gm = +Inf accepted")
	}
	if err := a.check("median", 2.5); err == nil {
		t.Error("an aggregate without a reference was accepted")
	}
}

// A group whose variance is 0 may come out as a tiny negative number,
// so std may be NaN and skewness/kurtosis anything; var and std must
// still be near 0.
func TestAccZeroVariance(t *testing.T) {
	a := accOf(false, 3, 3)
	for _, got := range []float64{0, math.NaN(), 1e-8} {
		if err := a.check("std", got); err != nil {
			t.Errorf("std = %v rejected: %v", got, err)
		}
	}
	if err := a.check("std", 0.5); err == nil {
		t.Error("std = 0.5 accepted for a constant group")
	}
	if err := a.check("var", 0.25); err == nil {
		t.Error("var = 0.25 accepted for a constant group")
	}
	for _, agg := range []string{"skewness", "kurtosis"} {
		if err := a.check(agg, math.NaN()); err != nil {
			t.Errorf("%s of a constant group rejected: %v", agg, err)
		}
	}
}

// The compensated sum keeps what a naive sum loses.
func TestKsumCompensates(t *testing.T) {
	var k ksum
	k.add(1e16)
	for i := 0; i < 1000; i++ {
		k.add(1)
	}
	k.add(-1e16)
	if k.value() != 1000 {
		t.Fatalf("compensated sum %v, want 1000", k.value())
	}
}

func TestQuantileRankBound(t *testing.T) {
	var xs []float64
	for i := 1; i <= 20_000; i++ {
		xs = append(xs, float64(i))
	}
	big := accOf(true, xs...)
	for _, c := range []struct {
		q, got float64
		ok     bool
	}{
		{0.5, 10_000, true},
		{0.5, 10_300, true},  // rank error 0.015
		{0.5, 10_500, false}, // rank error 0.025
		{0.25, 4_700, true},
		{0.25, 4_500, false},
		{0.75, 15_900, false},
	} {
		err := big.checkQuantile(c.q, c.got)
		if (err == nil) != c.ok {
			t.Errorf("q=%v estimate %v: err %v, want ok=%v", c.q, c.got, err, c.ok)
		}
	}
	// Below rankMinRows only the support [min, max] is checked.
	small := accOf(false, 2, 7, 9)
	for _, c := range []struct {
		got float64
		ok  bool
	}{{2, true}, {9, true}, {5, true}, {1.9, false}, {9.5, false}, {math.NaN(), false}} {
		err := small.checkQuantile(0.5, c.got)
		if (err == nil) != c.ok {
			t.Errorf("small group estimate %v: err %v, want ok=%v", c.got, err, c.ok)
		}
	}
}

func TestFrameCheck(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Frame [2, 5] holds 3, 4, 5, 6.
	if err := frameCheck(vals, 2, 5, [5]float64{3, 6, 4, 18, 4.5}); err != nil {
		t.Fatal(err)
	}
	if err := frameCheck(vals, 2, 5, [5]float64{3, 6, 4, 19, 4.5}); err == nil {
		t.Fatal("a wrong frame sum was accepted")
	}
	if err := frameCheck(vals, 2, 5, [5]float64{3, 6, 5, 18, 4.5}); err == nil {
		t.Fatal("a wrong frame count was accepted")
	}
}

// table builds a storage table from columns given as name → values
// ([]int64, []float64 or []string).
func table(name string, cols [][2]any) *storage.Table {
	t := storage.NewTable(name)
	for _, c := range cols {
		switch v := c[1].(type) {
		case []int64:
			col := storage.NewColumn(c[0].(string), storage.KindInt)
			for _, x := range v {
				col.AppendInt(x)
			}
			_ = t.AddColumn(col)
		case []float64:
			col := storage.NewColumn(c[0].(string), storage.KindFloat)
			for _, x := range v {
				col.AppendFloat(x)
			}
			_ = t.AddColumn(col)
		case []string:
			col := storage.NewColumn(c[0].(string), storage.KindString)
			for _, x := range v {
				col.AppendString(x)
			}
			_ = t.AddColumn(col)
		}
	}
	return t
}

// Query model 3 over hand-made tables: five sales rows, of which the
// join and the predicates keep rows 0, 2 and 4.
func TestJoinModel3(t *testing.T) {
	tables := []*storage.Table{
		table("date_dim", [][2]any{{"d_date_sk", []int64{0, 1}}, {"d_year", []int64{2000, 1999}}}),
		table("customer_demographics", [][2]any{
			{"cd_demo_sk", []int64{0, 1}},
			{"cd_gender", []string{"M", "F"}},
			{"cd_marital_status", []string{"S", "S"}},
			{"cd_education_status", []string{"College", "College"}},
		}),
		table("promotion", [][2]any{
			{"p_promo_sk", []int64{0, 1}},
			{"p_channel_email", []string{"Y", "Y"}},
			{"p_channel_event", []string{"N", "Y"}},
		}),
		table("item", [][2]any{{"i_item_sk", []int64{0, 1}}, {"i_item_id", []string{"B", "A"}}}),
		table("store_sales", [][2]any{
			{"ss_item_sk", []int64{0, 0, 1, 1, 1}},
			{"ss_sold_date_sk", []int64{0, 1, 0, 0, 0}}, // row 1: wrong year
			{"ss_cdemo_sk", []int64{0, 0, 0, 1, 0}},     // row 3: wrong gender
			{"ss_promo_sk", []int64{0, 0, 0, 0, 0}},
			{"ss_quantity", []float64{1, 2, 3, 4, 5}},
			{"ss_list_price", []float64{10, 20, 30, 40, 50}},
			{"ss_coupon_amt", []float64{1, 1, 1, 1, 1}},
			{"ss_sales_price", []float64{2, 2, 2, 2, 2}},
		}),
	}
	groups := joinModel3(tables)
	if len(groups) != 2 || groups[0].key != "A" || groups[1].key != "B" {
		t.Fatalf("groups %+v, want A then B", groups)
	}
	if a := groups[0].cols[0]; a.n != 2 || a.pow[1].value() != 8 {
		t.Errorf("item A quantity: n %d sum %v, want 2 and 8", a.n, a.pow[1].value())
	}
	if a := groups[1].cols[1]; a.n != 1 || a.pow[1].value() != 10 {
		t.Errorf("item B list price: n %d sum %v, want 1 and 10", a.n, a.pow[1].value())
	}
	// The promotion predicate is an OR: promo 1 has neither channel 'N'.
	tables[4].Col("ss_promo_sk").I[0] = 1
	if groups := joinModel3(tables); len(groups) != 1 || groups[0].key != "A" {
		t.Errorf("with row 0 on a filtered promotion: groups %+v, want only A", groups)
	}
}

func TestReferenceCheckWireResult(t *testing.T) {
	ref := &reference{squares: make([]*acc, 10)}
	ref.addSquare(3, 2)
	ref.addSquare(3, 4)
	ref.addSquare(7, 5)
	s := newStmt(2, "sum", "share")
	good := &client.Result{Rows: [][]any{{float64(3), float64(6)}, {float64(7), float64(5)}}}
	if err := ref.check(s, good); err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*client.Result{
		"wrong key":   {Rows: [][]any{{float64(4), float64(6)}, {float64(7), float64(5)}}},
		"wrong value": {Rows: [][]any{{float64(3), float64(6)}, {float64(7), float64(5.5)}}},
		"missing row": {Rows: [][]any{{float64(3), float64(6)}}},
		"non-number":  {Rows: [][]any{{float64(3), "x"}, {float64(7), float64(5)}}},
		"+Inf":        {Rows: [][]any{{float64(3), "+Inf"}, {float64(7), float64(5)}}},
	} {
		if err := ref.check(s, res); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An append moves the reference with it.
	ref.append([]int64{7}, []float64{1})
	if err := ref.check(s, good); err == nil {
		t.Error("stale answer accepted after an append")
	}
}

func TestKnownFaultLabels(t *testing.T) {
	for _, c := range []struct {
		model int
		agg   string
		fault string
	}{
		{1, "gm", faultGM},
		{1, "approx_median", faultSketch},
		{1, "approx_first_quantile", faultSketch},
		{1, "qm", ""},
		{2, "gm", ""},
		{3, "approx_median", ""},
	} {
		if got := newStmt(c.model, c.agg, "share").fault; got != c.fault {
			t.Errorf("model %d %s: fault %q, want %q", c.model, c.agg, got, c.fault)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark measures.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, got [][2]string, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i] != [2]string{d.name, d.unit} {
				t.Errorf("%s[%d] = %v, want %s %s", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	var e2e, layers [][2]string
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
	if _, err := os.Stat("../" + sp.Paths[0] + "/run.sh"); err != nil {
		t.Errorf("the command's script is not under paths: %v", err)
	}
}
