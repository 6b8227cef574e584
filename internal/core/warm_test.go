package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"privmdr/internal/dataset"
	"privmdr/internal/ldprand"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// warmGeometryEstimator fits HDG at the serving benchmark's geometry — d=6
// (15 pairs), c=64, g₁=16, g₂=4, Tol=1e-6 — on correlated normal data. The
// estimator's matrices are not built yet.
func warmGeometryEstimator(tb testing.TB, traces bool) *hdgEstimator {
	tb.Helper()
	ds, err := dataset.Normal(dataset.GenOptions{N: 60_000, D: 6, C: 64, Seed: 11, Rho: 0.8})
	if err != nil {
		tb.Fatal(err)
	}
	h := NewHDG(Options{G1: 16, G2: 4, WU: mwem.Options{Tol: 1e-6}, CollectTraces: traces})
	est, err := h.fit(ds, 1.0, ldprand.New(12))
	if err != nil {
		tb.Fatal(err)
	}
	if est.G1 != 16 || est.G2 != 4 || len(est.grids2) != 15 {
		tb.Fatalf("fitted g1=%d g2=%d with %d pairs, want 16, 4, 15", est.G1, est.G2, len(est.grids2))
	}
	return est
}

// sibling returns a fresh estimator over e's sealed grids with no matrices
// built.
func (e *hdgEstimator) sibling() *hdgEstimator {
	return newHDGEstimator(e.c, e.d, e.G1, e.G2, e.grids1, e.grids2, e.wu, e.traces)
}

// TestBatchedWarmMatchesLazyBuilds pins the batched PrecomputeMatrices at
// the benchmark geometry to lazy one-lane builds of every pair: prefix sums
// bit for bit, and one Algorithm 1 trace per pair, in pair order.
func TestBatchedWarmMatchesLazyBuilds(t *testing.T) {
	batched := warmGeometryEstimator(t, true)
	lazy := batched.sibling()
	if err := batched.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	pairs := mech.AllPairs(batched.d)
	if len(batched.Alg1Traces) != len(pairs) {
		t.Fatalf("%d Algorithm 1 traces for %d pairs", len(batched.Alg1Traces), len(pairs))
	}
	full := 0
	// Build lazily in reverse, so pair order in the batched traces is not
	// an accident of build order.
	for pi := len(pairs) - 1; pi >= 0; pi-- {
		a, b := pairs[pi][0], pairs[pi][1]
		want, err := lazy.responseMatrix(pi, a, b)
		if err != nil {
			t.Fatal(err)
		}
		lazyTrace := lazy.Alg1Traces[len(lazy.Alg1Traces)-1]
		if got := batched.Alg1Traces[pi]; !slices.EqualFunc(got, lazyTrace, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			t.Fatalf("pair %d: batched trace (%d sweeps, first %v) differs from lazy (%d sweeps, first %v)",
				pi, len(got), got[0], len(lazyTrace), lazyTrace[0])
		}
		if len(lazyTrace) == 100 {
			full++
		}
		got := batched.prefix[pi]
		for r := range batched.c {
			for col := range batched.c {
				g, w := got.RangeSum(0, r, 0, col), want.RangeSum(0, r, 0, col)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("pair %d prefix (%d,%d): batched %v, lazy %v", pi, r, col, g, w)
				}
			}
		}
	}
	if full == 0 {
		t.Error("no pair ran the full 100 sweeps; the geometry no longer exercises the MaxIters path")
	}
}

// TestPrecomputeSkipsBuiltPairs checks that a warm-up after some lazy
// builds batches only the remaining pairs, keeping one trace per pair.
func TestPrecomputeSkipsBuiltPairs(t *testing.T) {
	est := NewHDG(Options{CollectTraces: true})
	e, err := est.fit(correlatedDS(t, 10000, 4, 16), 1.0, ldprand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	ref := e.sibling()
	if _, err := e.responseMatrix(2, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	if err := ref.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	if len(e.Alg1Traces) != len(e.grids2) {
		t.Fatalf("%d traces for %d pairs", len(e.Alg1Traces), len(e.grids2))
	}
	// The lazily built pair 2 comes first, then the rest in pair order.
	order := []int{2, 0, 1, 3, 4, 5}
	for i, pi := range order {
		if !slices.Equal(e.Alg1Traces[i], ref.Alg1Traces[pi]) {
			t.Errorf("trace %d is not pair %d's", i, pi)
		}
	}
}

// TestPrecomputeConcurrentWithAnswers races the batched warm-up against
// queries that build pairs lazily: every pair is built exactly once, by
// whichever path reaches its Once first, and answers match an estimator
// warmed alone.
func TestPrecomputeConcurrentWithAnswers(t *testing.T) {
	est, err := NewHDG(Options{CollectTraces: true}).fit(correlatedDS(t, 10000, 4, 16), 1.0, ldprand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	ref := est.sibling()
	if err := ref.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	qs, err := query.RandomWorkload(ldprand.New(23), 40, 2, 4, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	answers := make([][]float64, 3)
	for g := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs {
				a, err := est.Answer(q)
				if err != nil {
					t.Error(err)
					return
				}
				answers[g] = append(answers[g], a)
			}
		}()
	}
	if err := est.PrecomputeMatrices(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(est.Alg1Traces) != len(est.grids2) {
		t.Fatalf("%d traces for %d pairs", len(est.Alg1Traces), len(est.grids2))
	}
	for _, got := range answers {
		for i, q := range qs {
			want, err := ref.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("query %v: %v under a concurrent warm-up, %v warmed alone", q, got[i], want)
			}
		}
	}
}

// BenchmarkHDGWarm measures the 15-pair response-matrix warm-up a sealed
// epoch performs at the serving benchmark's geometry.
func BenchmarkHDGWarm(b *testing.B) {
	est := warmGeometryEstimator(b, false)
	for b.Loop() {
		if err := est.sibling().PrecomputeMatrices(); err != nil {
			b.Fatal(err)
		}
	}
}
