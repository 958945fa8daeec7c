// Command sudaf-bench regenerates the SUDAF paper's evaluation: every
// figure's workload over synthetic TPC-DS-like and Milan-like data, with
// the three systems (baseline with hardcoded UDAFs, SUDAF without
// sharing, SUDAF with sharing). See EXPERIMENTS.md for recorded runs.
//
// Usage:
//
//	sudaf-bench -exp all
//	sudaf-bench -exp fig1,fig6 -pg-scale 2 -milan-pg 4000000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sudaf/internal/bench"
	"sudaf/internal/obs"
)

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiments: table1,space,fig1,fig2,fig6,fig7,fig8,fig9,fig10,batch,kernel,concurrent,ingest,encode,window,all")
		pgScale    = flag.Int("pg-scale", 2, "TPC-DS scale for serial (PostgreSQL-mode) runs")
		sparkScale = flag.Int("spark-scale", 4, "TPC-DS scale for parallel (Spark-mode) runs")
		milanPG    = flag.Int("milan-pg", 4_000_000, "Milan rows for serial runs")
		milanSpark = flag.Int("milan-spark", 8_000_000, "Milan rows for parallel runs")
		squares    = flag.Int("squares", 10_000, "Milan group cardinality")
		workers    = flag.Int("workers", 0, "Spark-mode parallelism (0 = NumCPU)")
		n10        = flag.Int("fig10-queries", 200, "random sequence length")
		concRows   = flag.Int("conc-rows", 1_500_000, "Milan rows for the concurrent throughput experiment")
		concSec    = flag.Float64("conc-seconds", 3, "time budget per (system, clients) cell of the concurrent experiment")
		seed       = flag.Int64("seed", 0, "dataset seed (0 = default)")
		metricsAt  = flag.String("metrics-addr", "", "serve Prometheus metrics, expvar and pprof on this address while the harness runs, e.g. :9090")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metricsAt != "" {
		reg = obs.NewRegistry()
		srv, err := obs.ServeMetrics(*metricsAt, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics  (expvar at /debug/vars, pprof at /debug/pprof)\n", srv.Addr)
	}

	r := bench.NewRunner(bench.Config{
		PGScale:        *pgScale,
		SparkScale:     *sparkScale,
		MilanRowsPG:    *milanPG,
		MilanRowsSpark: *milanSpark,
		MilanSquares:   *squares,
		Workers:        *workers,
		Seed:           *seed,
		Fig10Queries:   *n10,
		ConcRows:       *concRows,
		ConcSeconds:    *concSec,
		Out:            os.Stdout,
		Metrics:        reg,
	})

	start := time.Now()
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	if all || want["table1"] {
		r.Table1()
	}
	if all || want["space"] {
		r.Space()
	}
	if all || want["fig1"] {
		r.Fig1(false)
	}
	if all || want["fig2"] {
		r.Fig1(true)
	}
	if all || want["fig6"] || want["fig8"] {
		r.Fig6and8(false)
	}
	if all || want["fig7"] || want["fig9"] {
		r.Fig6and8(true)
	}
	if all || want["fig10"] {
		r.Fig10()
	}
	if all || want["batch"] {
		r.Batch()
	}
	if all || want["kernel"] {
		r.Kernel()
	}
	if all || want["concurrent"] {
		r.Concurrent()
	}
	if all || want["ingest"] {
		r.Ingest()
	}
	if all || want["encode"] {
		r.Encode()
	}
	if all || want["window"] {
		r.Window()
	}
	fmt.Printf("\ntotal harness time: %v\n", time.Since(start).Round(time.Millisecond))
}
