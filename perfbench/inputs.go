package main

// Inputs: the generated tables the engine receives, the statements each
// workload runs, and the reference answers computed from the same
// tables before the engine sees them.

import (
	"fmt"
	"sort"
	"strconv"

	"sudaf/internal/data"
	"sudaf/internal/server"
	"sudaf/internal/server/client"
	"sudaf/internal/storage"
)

const (
	milanRows    = 1_500_000
	milanSquares = 10_000
	tpcdsScale   = 2
	// batchRows is one ingest append: 1:100 of the Milan base table.
	batchRows = 15_000
	// windowRows is the sliding frame of the ingest subscription.
	windowRows = 1024
	// engineWorkers is the engine parallelism. The client, the server
	// and the engine share the machine's CPUs; one worker keeps the
	// engine from competing with the client for them (see README).
	engineWorkers = 1
	// framesChecked is how many frames of each emission are recomputed.
	framesChecked = 16
)

// Known faults: operations that fail on every seed because of a defect
// in the program. They are counted in "failed" under these labels; any
// other failure makes the run incorrect.
const (
	faultGM     = "a:gm-overflow"
	faultSketch = "b:sketch-ignores-log-moments"
)

var (
	// as1 and as2 are the paper's two aggregate execution orders.
	as1 = []string{"cm", "qm", "gm", "hm", "min", "max", "count", "std", "var", "sum", "avg"}
	as2 = []string{"max", "min", "sum", "avg", "count", "std", "var", "cm", "gm", "hm", "qm"}
	// fig10Aggs are the 16 aggregates of the paper's Figure 10 sequence.
	fig10Aggs = []string{
		"min", "max", "sum", "avg", "hm", "qm", "cm", "gm", "std", "var",
		"skewness", "kurtosis", "approx_median", "count",
		"approx_first_quantile", "approx_third_quantile",
	}
	// ingestAggs is the eight-aggregate query-model-2 mix re-run after
	// every append. gm is left out: its prod(x) state overflows once a
	// square holds about 230 rows, which ingest reaches after a number
	// of appends that depends on the run's speed (see README).
	ingestAggs = []string{"avg", "std", "var", "qm", "count", "hm", "cm", "sum"}
	// windowAggs are the subscription's aggregates, in select order.
	windowAggs = []string{"min", "max", "count", "sum", "avg"}
)

const windowSQL = "SELECT min(internet_traffic) OVER (ROWS 1023 PRECEDING), " +
	"max(internet_traffic), count(*), sum(internet_traffic), avg(internet_traffic) FROM milan_data"

// stmt is one query operation and what its answer is checked against.
type stmt struct {
	model int
	agg   string
	sql   string
	mode  string // wire mode: "rewrite" or "share"
	fault string // known-fault label, "" when the answer must be right
}

func aggSQL(agg, col string) string {
	if agg == "count" {
		return "count(*)"
	}
	return agg + "(" + col + ")"
}

// model3Cols are query model 3's measure columns, in select order.
var model3Cols = []string{"ss_quantity", "ss_list_price", "ss_coupon_amt", "ss_sales_price"}

// newStmt renders query model m (1: Milan grand aggregate, 2: Milan
// GROUP BY square_id, 3: TPC-DS five-way join) with agg.
func newStmt(m int, agg, mode string) stmt {
	s := stmt{model: m, agg: agg, mode: mode}
	switch m {
	case 1:
		s.sql = "SELECT " + aggSQL(agg, "internet_traffic") + " FROM milan_data"
		if agg == "gm" {
			s.fault = faultGM
		} else if _, ok := quantileOf[agg]; ok {
			s.fault = faultSketch
		}
	case 2:
		s.sql = "SELECT square_id, " + aggSQL(agg, "internet_traffic") +
			" FROM milan_data GROUP BY square_id ORDER BY square_id LIMIT 20"
	case 3:
		s.sql = "SELECT i_item_id"
		for i, c := range model3Cols {
			s.sql += fmt.Sprintf(", %s agg%d", aggSQL(agg, c), i+1)
		}
		s.sql += ` FROM store_sales, customer_demographics, date_dim, item, promotion
WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and
	ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and
	cd_gender = 'M' and cd_marital_status = 'S' and
	cd_education_status = 'College' and
	(p_channel_email = 'N' or p_channel_event = 'N') and d_year = 2000
GROUP BY i_item_id ORDER BY i_item_id LIMIT 100`
	default:
		panic("bad query model")
	}
	return s
}

// inputs are one seed's generated tables and their reference answers.
type inputs struct {
	seed   int64
	tables []*storage.Table
	ref    *reference
}

// tpcdsSeed generates the TPC-DS tables. It is fixed, like a standard
// benchmark's dataset: the generator draws the promotion flags per seed,
// which moves the number of query-model-3 groups by ±10% and every
// model-3 query's cost with it, a spread between runs that would hide
// real changes. --seed varies the Milan table and the ingest batches.
const tpcdsSeed = 20200331

// makeInputs generates the tables: the Milan table from seed, the
// TPC-DS tables from tpcdsSeed.
func makeInputs(seed int64) *inputs {
	milan := data.Milan(milanRows, milanSquares, seed)
	tpcds := data.TPCDS(tpcdsScale, tpcdsSeed)
	return &inputs{seed: seed, tables: append([]*storage.Table{milan}, tpcds...), ref: buildReference(milan, tpcds)}
}

// batch generates ingest append i: batchRows Milan-like rows.
func batch(seed int64, i int) (squares []int64, traffic []float64) {
	t := data.Milan(batchRows, milanSquares, seed<<20+int64(i)+2)
	return t.Col("square_id").I, t.Col("internet_traffic").F
}

// refGroup is one expected result row: its key and one accumulator per
// measure column.
type refGroup struct {
	key  string
	cols []*acc
}

// reference holds the expected answers of query models 1-3.
type reference struct {
	model1  []refGroup
	squares []*acc // query model 2, by square id
	model3  []refGroup
	// traffic is milan_data.internet_traffic in row order, appends
	// included: the rows the subscription's frames cover.
	traffic []float64
}

func buildReference(milan *storage.Table, tpcds []*storage.Table) *reference {
	sq := milan.Col("square_id").I
	tr := milan.Col("internet_traffic").F
	r := &reference{
		squares: make([]*acc, milanSquares),
		traffic: append([]float64(nil), tr...),
	}
	all := &acc{keep: true}
	for i, x := range tr {
		all.add(x)
		r.addSquare(sq[i], x)
	}
	all.seal()
	r.model1 = []refGroup{{cols: []*acc{all}}}
	r.model3 = joinModel3(tpcds)
	return r
}

func (r *reference) addSquare(sq int64, x float64) {
	if r.squares[sq] == nil {
		r.squares[sq] = &acc{}
	}
	r.squares[sq].add(x)
}

// append folds one ingest batch into the model-2 accumulators and the
// frame rows. Query model 1's accumulator is left as is: ingest never
// queries it.
func (r *reference) append(squares []int64, traffic []float64) {
	for i, x := range traffic {
		r.addSquare(squares[i], x)
	}
	r.traffic = append(r.traffic, traffic...)
}

// clone copies the parts ingest changes, so each timed phase starts
// from the base tables again.
func (r *reference) clone() *reference {
	c := *r
	c.squares = make([]*acc, len(r.squares))
	for i, a := range r.squares {
		if a != nil {
			cp := *a
			c.squares[i] = &cp
		}
	}
	c.traffic = append([]float64(nil), r.traffic...)
	return &c
}

// groups returns the expected rows of query model m, in result order.
func (r *reference) groups(m int) []refGroup {
	switch m {
	case 1:
		return r.model1
	case 2:
		var out []refGroup
		for id, a := range r.squares {
			if a != nil {
				out = append(out, refGroup{key: strconv.Itoa(id), cols: []*acc{a}})
				if len(out) == 20 {
					break
				}
			}
		}
		return out
	}
	return r.model3
}

// check compares a query's wire result with the reference.
func (r *reference) check(s stmt, res *client.Result) error {
	groups := r.groups(s.model)
	if len(res.Rows) != len(groups) {
		return fmt.Errorf("%d rows, reference has %d", len(res.Rows), len(groups))
	}
	keyCols := 1
	if s.model == 1 {
		keyCols = 0
	}
	for i, g := range groups {
		row := res.Rows[i]
		if len(row) != keyCols+len(g.cols) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(row), keyCols+len(g.cols))
		}
		if keyCols == 1 && fmt.Sprint(row[0]) != g.key {
			return fmt.Errorf("row %d key %v, reference %s", i, row[0], g.key)
		}
		for j, a := range g.cols {
			got, ok := server.CellFloat(row[keyCols+j])
			if !ok {
				return fmt.Errorf("row %d cell %d is not a number: %v", i, keyCols+j, row[keyCols+j])
			}
			if err := a.check(s.agg, got); err != nil {
				return fmt.Errorf("group %q column %d: %w", g.key, j, err)
			}
		}
	}
	return nil
}

// joinModel3 evaluates query model 3 with a hash join over the
// generated TPC-DS tables.
func joinModel3(tables []*storage.Table) []refGroup {
	byName := map[string]*storage.Table{}
	for _, t := range tables {
		byName[t.Name] = t
	}
	dates := map[int64]bool{}
	dd := byName["date_dim"]
	for i, y := range dd.Col("d_year").I {
		if y == 2000 {
			dates[dd.Col("d_date_sk").I[i]] = true
		}
	}
	demos := map[int64]bool{}
	cd := byName["customer_demographics"]
	for i, sk := range cd.Col("cd_demo_sk").I {
		if cd.Col("cd_gender").StringAt(i) == "M" && cd.Col("cd_marital_status").StringAt(i) == "S" &&
			cd.Col("cd_education_status").StringAt(i) == "College" {
			demos[sk] = true
		}
	}
	promos := map[int64]bool{}
	pr := byName["promotion"]
	for i, sk := range pr.Col("p_promo_sk").I {
		if pr.Col("p_channel_email").StringAt(i) == "N" || pr.Col("p_channel_event").StringAt(i) == "N" {
			promos[sk] = true
		}
	}
	items := map[int64]string{}
	it := byName["item"]
	for i, sk := range it.Col("i_item_sk").I {
		items[sk] = it.Col("i_item_id").StringAt(i)
	}
	ss := byName["store_sales"]
	measures := make([][]float64, len(model3Cols))
	for j, c := range model3Cols {
		measures[j] = ss.Col(c).F
	}
	groups := map[string][]*acc{}
	for i, item := range ss.Col("ss_item_sk").I {
		id, ok := items[item]
		if !ok || !dates[ss.Col("ss_sold_date_sk").I[i]] || !demos[ss.Col("ss_cdemo_sk").I[i]] ||
			!promos[ss.Col("ss_promo_sk").I[i]] {
			continue
		}
		g := groups[id]
		if g == nil {
			g = make([]*acc, len(model3Cols))
			for j := range g {
				g[j] = &acc{}
			}
			groups[id] = g
		}
		for j := range g {
			g[j].add(measures[j][i])
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 100 {
		keys = keys[:100]
	}
	out := make([]refGroup, len(keys))
	for i, k := range keys {
		out[i] = refGroup{key: k, cols: groups[k]}
	}
	return out
}
