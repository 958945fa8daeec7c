package cache

import (
	"math"
	"math/rand"
	"testing"

	"sudaf/internal/canonical"
	"sudaf/internal/expr"
	"sudaf/internal/scalar"
	"sudaf/internal/storage"
)

// The ⊕-merge property test behind append maintenance: fold a row
// multiset's partitions separately and MergeDelta them into one entry.
// For ANY assignment of rows to partitions and ANY merge order, the
// merged per-group values must be bit-identical to a direct fold over
// the whole multiset. Row values are integer-valued floats (plus
// NaN/±Inf specials), so every ⊕ reduction is exact and "identical"
// means Float64bits-identical, not within-epsilon.

// mrow is one input row: a group and a value.
type mrow struct {
	g int64
	v float64
}

// mergeStates are the fold shapes under test: one per ⊕ flavor (the F
// chains are empty — F applies per tuple before ⊕ and is irrelevant to
// merge algebra; distinct Base vars keep the state keys distinct).
func mergeStates() []canonical.State {
	return []canonical.State{
		{Op: canonical.OpSum, F: scalar.NewChain(), Base: expr.MustParse("a")},
		{Op: canonical.OpCount, Base: &expr.Num{Val: 1}},
		{Op: canonical.OpMin, F: scalar.NewChain(), Base: expr.MustParse("b")},
		{Op: canonical.OpMax, F: scalar.NewChain(), Base: expr.MustParse("c")},
		{Op: canonical.OpProd, F: scalar.NewChain(), Base: expr.MustParse("d")},
	}
}

// partial is one partition's per-group fold, in first-appearance group
// order — what a scan over those rows produces.
type partial struct {
	keys []GroupKey
	kc   *storage.Column
	vals [][]float64
}

// foldPartial folds rows per group. Values are small integers (|v| ≤ 3,
// ≤ ~30 per group), so sums and products stay exact in float64.
func foldPartial(states []canonical.State, rows []mrow) partial {
	p := partial{kc: storage.NewColumn("g", storage.KindInt), vals: make([][]float64, len(states))}
	idx := map[int64]int{}
	for _, r := range rows {
		gi, ok := idx[r.g]
		if !ok {
			gi = len(p.keys)
			idx[r.g] = gi
			p.keys = append(p.keys, GroupKey{r.g, 0})
			p.kc.AppendInt(r.g)
			for i, st := range states {
				p.vals[i] = append(p.vals[i], st.MergeIdentity())
			}
		}
		for i, st := range states {
			if st.Op == canonical.OpCount {
				p.vals[i][gi]++
			} else {
				p.vals[i][gi] = st.Merge(p.vals[i][gi], r.v)
			}
		}
	}
	return p
}

// mergeAll seeds an entry from the first partial and MergeDeltas the
// rest into it in order, returning group key → per-state value bits.
func mergeAll(t *testing.T, states []canonical.State, parts []partial) map[int64][]uint64 {
	t.Helper()
	p0 := parts[0]
	gt := NewGroupTable("merge", []string{"g"}, p0.keys, []*storage.Column{p0.kc})
	for i, st := range states {
		if err := gt.AddState(&CachedState{State: st, Vals: p0.vals[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range parts[1:] {
		dv := make(map[string][]float64, len(states))
		dp := make(map[string]bool, len(states))
		for i, st := range states {
			dv[st.Key()] = p.vals[i]
			dp[st.Key()] = false
		}
		next, err := MergeDelta(gt.SnapshotEntry(), "merge", p.keys, []*storage.Column{p.kc}, dv, dp, nil)
		if err != nil {
			t.Fatal(err)
		}
		gt = next
	}
	out := map[int64][]uint64{}
	for gi, k := range gt.Keys {
		row := make([]uint64, len(states))
		for i, st := range states {
			cs, ok := gt.Exact(st.Key())
			if !ok {
				t.Fatalf("state %s lost in merge", st.Key())
			}
			row[i] = math.Float64bits(cs.Vals[gi])
		}
		out[k[0]] = row
	}
	return out
}

// genRows builds a random integer-valued row multiset with adversarial
// specials: NaN and ±Inf rows, a single-row group and a heavy group.
func genRows(rng *rand.Rand) []mrow {
	groups := 1 + rng.Intn(8)
	var rows []mrow
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(7) - 3) // small ints, signed
			if rng.Intn(40) == 0 {
				v = math.NaN()
			} else if rng.Intn(40) == 0 {
				v = math.Inf(1 - 2*rng.Intn(2))
			}
			rows = append(rows, mrow{g: int64(g), v: v})
		}
	}
	// One group that only ever has a single row.
	rows = append(rows, mrow{g: 999, v: 5})
	return rows
}

func TestMergeDeltaPartitionInvariance(t *testing.T) {
	states := mergeStates()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows := genRows(rng)

		// Ground truth: one fold over the whole multiset.
		want := mergeAll(t, states, []partial{foldPartial(states, rows)})

		// Random partitioning (row→partition assignment is arbitrary,
		// not necessarily contiguous; n may exceed the row count,
		// forcing empty partitions).
		n := 1 + rng.Intn(9)
		parts := make([][]mrow, n)
		for _, r := range rows {
			s := rng.Intn(n)
			parts[s] = append(parts[s], r)
		}
		partials := make([]partial, n)
		for i := range parts {
			partials[i] = foldPartial(states, parts[i])
		}
		diffMaps(t, trial, "partitioned", want, mergeAll(t, states, partials))

		// Merge order must not matter either.
		rng.Shuffle(n, func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
		diffMaps(t, trial, "shuffled", want, mergeAll(t, states, partials))
	}
}

func diffMaps(t *testing.T, trial int, what string, want, got map[int64][]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d %s: group counts differ: want %d got %d", trial, what, len(want), len(got))
	}
	for g, wv := range want {
		gv, ok := got[g]
		if !ok {
			t.Fatalf("trial %d %s: group %d missing", trial, what, g)
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("trial %d %s: group %d state %d: want %v got %v", trial, what, g, i,
					math.Float64frombits(wv[i]), math.Float64frombits(gv[i]))
			}
		}
	}
}
