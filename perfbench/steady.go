package main

// The steadiness command: run one workload N times with consecutive
// seeds, for BENCHMARK.json's run_seconds each, then print each
// end-to-end metric's median, quartiles and spread against the bound
// BENCHMARK.json gives it.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}

func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	_ = fs.Parse(args) // ExitOnError
	sp, err := readSpec("BENCHMARK.json")
	if err != nil || workloadByName(*name) == nil || *runs < 1 {
		fmt.Fprintln(os.Stderr, "steady: need --workload and BENCHMARK.json in the working directory:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	values := map[string][]float64{}
	var shares []*big.Rat
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		cmd := exec.Command(exe, "--workload", *name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var res result
		if err == nil {
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: run with seed %d: %v\n%s", s, err, stderr.String())
			return 1
		}
		share := big.NewRat(int64(res.Failed), int64(res.Attempted))
		shares = append(shares, share)
		fmt.Printf("seed %d: correct %v, attempted %d, failed %d (%s)", s, res.Correct, res.Attempted, res.Failed, share.RatString())
		for _, d := range sp.EndToEnd {
			v := res.Metrics[d.Name].Value
			values[d.Name] = append(values[d.Name], v)
			fmt.Printf(", %s %.4g", d.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-14s %12s %12s %12s %8s %7s %7s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
	code := 0
	for _, d := range sp.EndToEnd {
		q := quartiles(values[d.Name])
		spread := (q[2] - q[0]) / q[1]
		verdict := "steady"
		switch {
		case spread > d.Bound:
			verdict = "WIDE"
			if d.Name != "setup_s" {
				code = 1
			}
		case spread > d.Bound/3:
			verdict = "loose"
		}
		fmt.Printf("%-14s %12.5g %12.5g %12.5g %8.4f %7.3f %7s\n", d.Name, q[0], q[1], q[2], spread, d.Bound, verdict)
	}
	for _, s := range shares[1:] {
		if s.Cmp(shares[0]) != 0 {
			fmt.Println("failed share differs between runs")
			code = 1
			break
		}
	}
	return code
}
