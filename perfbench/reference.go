package main

// The independent reference: every answer the benchmark times is checked
// against values computed here from the generated inputs, with no engine
// code on the path. Sums are compensated (Neumaier), statistics are
// derived from the sums with tolerances that follow each formula's
// conditioning, quantiles come from the exact sorted sample, and the
// window frames are refolded directly.

import (
	"fmt"
	"math"
	"sort"
)

const (
	// relTol bounds the relative error allowed on a sum over positive
	// terms. Naive float64 summation of n positive terms errs by at most
	// (n-1)·2⁻⁵³ relative; n ≤ 3·10⁶ here, so 1e-9 leaves two orders of
	// magnitude while still catching one lost or doubled row.
	relTol = 1e-9
	// rankEps is the rank error a moment-sketch quantile may have: twice
	// the average error ε_avg = 0.01 the moment-sketch paper (Gan et al.,
	// VLDB 2018) reports for sketches of order k ≈ 10.
	rankEps = 0.02
	// rankMinRows is the smallest group the rank bound is applied to.
	// Smaller groups are checked against the estimator's support
	// [min, max] only: their sample quantiles move in steps of 1/n,
	// and the paper's accuracy is a large-sample figure.
	rankMinRows = 10_000
)

// ksum is a Neumaier compensated sum.
type ksum struct{ s, c float64 }

func (k *ksum) add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

func (k ksum) value() float64 { return k.s + k.c }

// acc is one group's reference accumulator over one measure column.
type acc struct {
	n        int
	min, max float64
	abs      ksum    // Σ|x|
	pow      [5]ksum // pow[k] = Σx^k, k = 1..4
	inv, ln  ksum    // Σ1/x, Σln x
	// vals holds the group's values when quantiles are checked on it
	// (keep set); seal sorts them once the group is complete.
	keep   bool
	vals   []float64
	sorted bool
}

// seal sorts the kept values; checks may then run concurrently.
func (a *acc) seal() {
	sort.Float64s(a.vals)
	a.sorted = true
}

func (a *acc) add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	x2 := x * x
	a.abs.add(math.Abs(x))
	a.pow[1].add(x)
	a.pow[2].add(x2)
	a.pow[3].add(x2 * x)
	a.pow[4].add(x2 * x2)
	a.inv.add(1 / x)
	a.ln.add(math.Log(x))
	if a.keep {
		a.vals = append(a.vals, x)
		a.sorted = false
	}
}

// moments returns the raw moments m_k = Σx^k / n, k = 1..4.
func (a *acc) moments() (m1, m2, m3, m4 float64) {
	n := float64(a.n)
	return a.pow[1].value() / n, a.pow[2].value() / n, a.pow[3].value() / n, a.pow[4].value() / n
}

// variance returns the population variance and the absolute error a
// correct engine's m2 - m1² may carry.
func (a *acc) variance() (v, tol float64) {
	m1, m2, _, _ := a.moments()
	return m2 - m1*m1, relTol * (m2 + m1*m1)
}

// check reports whether got is an acceptable value of agg over the
// group, and why not when it is not.
func (a *acc) check(agg string, got float64) error {
	if a.n == 0 {
		return fmt.Errorf("%s over an empty group", agg)
	}
	n := float64(a.n)
	m1, m2, m3, m4 := a.moments()
	near := func(want, tol float64) error {
		if math.IsNaN(got) || math.Abs(got-want) > tol {
			return fmt.Errorf("%s = %v, reference %v ± %.3g", agg, got, want, tol)
		}
		return nil
	}
	rel := func(want float64) error { return near(want, relTol*math.Abs(want)) }
	switch agg {
	case "count":
		return near(n, 0)
	case "min":
		return near(a.min, 0)
	case "max":
		return near(a.max, 0)
	case "sum":
		return near(a.pow[1].value(), relTol*a.abs.value())
	case "avg":
		return near(m1, relTol*a.abs.value()/n)
	case "qm":
		return rel(math.Sqrt(m2))
	case "cm":
		return rel(math.Cbrt(m3))
	case "hm":
		return rel(n / a.inv.value())
	case "gm":
		return rel(math.Exp(a.ln.value() / n))
	case "var":
		v, tol := a.variance()
		return near(v, tol)
	case "std":
		v, tol := a.variance()
		if math.IsNaN(got) && v <= tol {
			return nil // a variance within rounding of 0 may come out negative
		}
		if math.IsNaN(got) || math.Abs(got*got-v) > tol {
			return fmt.Errorf("std = %v, reference %v (variance ± %.3g)", got, math.Sqrt(v), tol)
		}
		return nil
	case "skewness", "kurtosis":
		v, vtol := a.variance()
		if v <= 100*vtol {
			return nil // the variance is lost in rounding: any value is right
		}
		var num, numTol, p float64
		if agg == "skewness" {
			num = m3 - 3*m1*m2 + 2*m1*m1*m1
			numTol = relTol * (math.Abs(m3) + 3*math.Abs(m1*m2) + 2*math.Abs(m1*m1*m1))
			p = 1.5
		} else {
			num = m4 - 4*m1*m3 + 6*m1*m1*m2 - 3*m1*m1*m1*m1
			numTol = relTol * (math.Abs(m4) + 4*math.Abs(m1*m3) + 6*m1*m1*m2 + 3*m1*m1*m1*m1)
			p = 2
		}
		den := math.Pow(v, p)
		want := num / den
		return near(want, 2*(numTol/den+math.Abs(want)*(p*vtol/v+relTol)))
	}
	if q, ok := quantileOf[agg]; ok {
		return a.checkQuantile(q, got)
	}
	return fmt.Errorf("no reference for aggregate %q", agg)
}

// quantileOf maps the moment-sketch quantile aggregates to their q.
var quantileOf = map[string]float64{
	"approx_first_quantile": 0.25,
	"approx_median":         0.5,
	"approx_third_quantile": 0.75,
}

// checkQuantile accepts an estimate of the q-quantile when it lies
// between the exact sample quantiles at q-rankEps and q+rankEps (rounded
// outward), i.e. when its rank error is at most rankEps. Groups smaller
// than rankMinRows only have to stay within [min, max].
func (a *acc) checkQuantile(q, got float64) error {
	slack := 1e-9 * (a.max - a.min)
	lo, hi := a.min-slack, a.max+slack
	if a.n >= rankMinRows {
		if !a.keep || !a.sorted {
			return fmt.Errorf("quantile over a group whose values were not kept and sealed")
		}
		last := float64(a.n - 1)
		lo = a.vals[int(math.Floor(math.Max(0, q-rankEps)*last))]
		hi = a.vals[int(math.Ceil(math.Min(1, q+rankEps)*last))]
	}
	if !(got >= lo && got <= hi) {
		return fmt.Errorf("quantile %.2f = %v, outside [%v, %v] (rank %.3f)", q, got, lo, hi, a.rank(got))
	}
	return nil
}

// rank is the share of the group's kept values below x (NaN when the
// values were not kept).
func (a *acc) rank(x float64) float64 {
	if !a.sorted {
		return math.NaN()
	}
	return float64(sort.SearchFloat64s(a.vals, x)) / float64(len(a.vals))
}

// frameCheck recomputes one sliding frame vals[lo..hi] directly and
// compares the emitted min, max, count, sum and avg against it.
func frameCheck(vals []float64, lo, hi int, got [5]float64) error {
	var f acc
	for _, x := range vals[lo : hi+1] {
		f.add(x)
	}
	for i, agg := range windowAggs {
		if err := f.check(agg, got[i]); err != nil {
			return fmt.Errorf("frame [%d, %d]: %w", lo, hi, err)
		}
	}
	return nil
}
