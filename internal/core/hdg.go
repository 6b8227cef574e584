package core

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"privmdr/internal/consistency"
	"privmdr/internal/dataset"
	"privmdr/internal/grid"
	"privmdr/internal/mathx"
	"privmdr/internal/mech"
	"privmdr/internal/mwem"
	"privmdr/internal/query"
)

// HDG is the Hybrid-Dimensional Grids mechanism (Section 4): TDG's 2-D grids
// plus one finer-grained 1-D grid per attribute. The 1-D information is
// fused with the 2-D grids through Algorithm 1's response matrices, which
// replace TDG's uniformity assumption when a query rectangle cuts through a
// cell.
type HDG struct {
	opts Options
}

// NewHDG returns an HDG mechanism with the given options.
func NewHDG(opts Options) *HDG { return &HDG{opts: opts.withDefaults()} }

// Name implements mech.Mechanism.
func (h *HDG) Name() string {
	if h.opts.SkipPostProcess {
		return "IHDG"
	}
	return "HDG"
}

// hdgEstimator answers queries from the post-processed hybrid grids. Once
// finalized it is effectively immutable: the grids are sealed, response
// matrices are built exactly once behind sync.Once, and the optional trace
// collection is mutex-guarded — so Answer and AnswerBatch are safe for
// concurrent use.
type hdgEstimator struct {
	c, d   int
	G1, G2 int
	grids1 []*grid.Grid1D // per attribute, sealed
	grids2 []*grid.Grid2D // per pair (mech.PairIndex order), sealed
	wu     mwem.Options
	traces bool

	// prefix[pi] holds the prefix sums of pair pi's response matrix, built
	// at most once by matOnce[pi] (the raw matrix is discarded once summed);
	// matErr[pi] records a build failure. Reads are safe after the
	// corresponding Once completes; matBuilt[pi] lets PrecomputeMatrices
	// skip pairs already built without blocking on their Once.
	prefix   []*mathx.Prefix2D
	matOnce  []sync.Once
	matErr   []error
	matBuilt []atomic.Bool

	// mu guards the convergence traces below. It is only ever taken when
	// traces is set, keeping trace bookkeeping off the Answer hot path.
	mu            sync.Mutex
	Alg1Traces    [][]float64
	LastAlg2Trace []float64
}

// newHDGEstimator seals the grids and wires the concurrency plumbing shared
// by the collector and snapshot constructors.
func newHDGEstimator(c, d, g1, g2 int, grids1 []*grid.Grid1D, grids2 []*grid.Grid2D, wu mwem.Options, traces bool) *hdgEstimator {
	for _, g := range grids1 {
		g.Seal()
	}
	for _, g := range grids2 {
		g.Seal()
	}
	return &hdgEstimator{
		c: c, d: d, G1: g1, G2: g2,
		grids1:   grids1,
		grids2:   grids2,
		wu:       wu,
		traces:   traces,
		prefix:   make([]*mathx.Prefix2D, len(grids2)),
		matOnce:  make([]sync.Once, len(grids2)),
		matErr:   make([]error, len(grids2)),
		matBuilt: make([]atomic.Bool, len(grids2)),
	}
}

// Fit implements mech.Mechanism as a thin wrapper over the protocol path:
// Protocol → per-user ClientReport → Submit → Finalize.
func (h *HDG) Fit(ds *dataset.Dataset, eps float64, rng *rand.Rand) (mech.Estimator, error) {
	return mech.FitViaProtocol(h, ds, eps, rng)
}

// postProcessHybrid runs Phase 2 for HDG: each attribute's views are its 1-D
// grid (|S| = g₁/g₂ cells per coarse bucket) and its d−1 2-D footprints
// (|S| = g₂ each).
func postProcessHybrid(d int, grids1 []*grid.Grid1D, grids2 []*grid.Grid2D, rounds int) error {
	pairs := mech.AllPairs(d)
	pipeline := &consistency.Pipeline{
		Attrs: d,
		NormSubAll: func() {
			for _, g := range grids1 {
				consistency.NormSub(g.Freq, 1)
			}
			for _, g := range grids2 {
				consistency.NormSub(g.Freq, 1)
			}
		},
		AttrViews: func(a int) []consistency.View {
			g2 := grids2[0].G
			views := []consistency.View{consistency.Grid1DView(grids1[a], g2)}
			for pi, pair := range pairs {
				g := grids2[pi]
				switch a {
				case pair[0]:
					views = append(views, consistency.GridRowView(g))
				case pair[1]:
					views = append(views, consistency.GridColView(g))
				}
			}
			return views
		},
	}
	return pipeline.Run(rounds)
}

// responseMatrix returns the prefix sums of the pair's response matrix,
// building them at most once (Algorithm 1, fusing {G(j), G(k), G(j,k)}).
// Safe for concurrent use: the first caller builds, everyone else waits.
func (e *hdgEstimator) responseMatrix(pi int, a, b int) (*mathx.Prefix2D, error) {
	e.matOnce[pi].Do(func() {
		ms, traces, err := mwem.BuildResponseMatrices(e.c, e.constraintRects(), [][]float64{e.pairFreqs(pi, a, b)}, e.wu)
		e.installMatrix(pi, ms, traces, 0, err)
	})
	if err := e.matErr[pi]; err != nil {
		return nil, err
	}
	return e.prefix[pi], nil
}

// constraintRects is the Algorithm 1 constraint geometry every pair shares
// (all attributes have the same c, g₁ and g₂): the first attribute's 1-D
// cells as row strips, the second's as column strips, then the 2-D cells.
func (e *hdgEstimator) constraintRects() []mwem.Rect {
	c := e.c
	g1, g2 := e.grids1[0], e.grids2[0]
	rects := make([]mwem.Rect, 0, 2*len(g1.Freq)+len(g2.Freq))
	for i := range g1.Freq {
		lo, hi := g1.CellInterval(i)
		rects = append(rects, mwem.Rect{R0: lo, R1: hi, C0: 0, C1: c - 1})
	}
	for i := range g1.Freq {
		lo, hi := g1.CellInterval(i)
		rects = append(rects, mwem.Rect{R0: 0, R1: c - 1, C0: lo, C1: hi})
	}
	for i := range g2.Freq {
		r0, r1, c0, c1 := g2.CellRect(i)
		rects = append(rects, mwem.Rect{R0: r0, R1: r1, C0: c0, C1: c1})
	}
	return rects
}

// pairFreqs returns pair pi's constraint frequencies in constraintRects
// order: G(a), G(b), then G(a,b).
func (e *hdgEstimator) pairFreqs(pi int, a, b int) []float64 {
	ga, gb, gab := e.grids1[a].Freq, e.grids1[b].Freq, e.grids2[pi].Freq
	return slices.Concat(ga, gb, gab)
}

// installMatrix memoizes pair pi's response matrix from lane i of an
// Algorithm 1 call (or the call's error). Called only inside matOnce[pi].
func (e *hdgEstimator) installMatrix(pi int, ms, traces [][]float64, i int, err error) {
	defer e.matBuilt[pi].Store(true)
	if err != nil {
		e.matErr[pi] = err
		return
	}
	if e.traces {
		e.mu.Lock()
		e.Alg1Traces = append(e.Alg1Traces, traces[i])
		e.mu.Unlock()
	}
	p, err := mathx.NewPrefix2D(ms[i], e.c, e.c)
	if err != nil {
		e.matErr[pi] = err
		return
	}
	e.prefix[pi] = p
}

// PrecomputeMatrices builds every pair's response matrix up front instead of
// on first use — the warm-up a long-lived query server performs before
// taking traffic (Options.EagerMatrices runs it at Finalize). The pairs not
// yet built go through one batched Algorithm 1 call, installed in pair
// order; a pair a concurrent query built first keeps that (bit-identical)
// build.
func (e *hdgEstimator) PrecomputeMatrices() error {
	pairs := mech.AllPairs(e.d)
	var todo []int
	var freqs [][]float64
	for pi, pair := range pairs {
		if !e.matBuilt[pi].Load() {
			todo = append(todo, pi)
			freqs = append(freqs, e.pairFreqs(pi, pair[0], pair[1]))
		}
	}
	if len(todo) > 0 {
		ms, traces, err := mwem.BuildResponseMatrices(e.c, e.constraintRects(), freqs, e.wu)
		for i, pi := range todo {
			e.matOnce[pi].Do(func() { e.installMatrix(pi, ms, traces, i, err) })
		}
	}
	for pi, pair := range pairs {
		if _, err := e.responseMatrix(pi, pair[0], pair[1]); err != nil {
			return err
		}
	}
	return nil
}

// pair2D answers a 2-D query on pair (a, b): completely covered cells
// contribute their grid frequency (one O(1) block sum on the sealed grid);
// the partially covered boundary cells tile the query rectangle minus the
// complete block, so their response-matrix mass is a single
// inclusion–exclusion of prefix sums.
func (e *hdgEstimator) pair2D(a, b int, pa, pb query.Pred) (float64, error) {
	pi, err := mech.PairIndex(e.d, a, b)
	if err != nil {
		return 0, err
	}
	g := e.grids2[pi]
	w := g.CellWidth()
	cr0, cr1, cc0, cc1, ok := g.CompleteBlock(pa.Lo, pa.Hi, pb.Lo, pb.Hi)
	ans := 0.0
	if ok {
		ans = g.BlockSum(cr0, cr1, cc0, cc1)
		if cr0*w == pa.Lo && (cr1+1)*w-1 == pa.Hi && cc0*w == pb.Lo && (cc1+1)*w-1 == pb.Hi {
			// Cell-aligned query: every touched cell is complete and the
			// response matrix is not needed.
			return ans, nil
		}
	}
	pf, err := e.responseMatrix(pi, a, b)
	if err != nil {
		return 0, err
	}
	partial := pf.RangeSum(pa.Lo, pa.Hi, pb.Lo, pb.Hi)
	if ok {
		partial -= pf.RangeSum(cr0*w, (cr1+1)*w-1, cc0*w, (cc1+1)*w-1)
	}
	return ans + partial, nil
}

// Answer implements mech.Estimator. Safe for concurrent use.
func (e *hdgEstimator) Answer(q query.Query) (float64, error) {
	if err := q.Validate(e.d, e.c); err != nil {
		return 0, err
	}
	qs := q.Sorted()
	if len(qs) == 1 {
		// 1-D query: the fine-grained 1-D grid answers directly; its cells
		// are c/g₁ wide, so the residual uniformity error is negligible.
		return e.grids1[qs[0].Attr].AnswerUniform(qs[0].Lo, qs[0].Hi), nil
	}
	f, trace, err := mwem.AnswerRange(qs, e.pair2D, e.wu)
	if err != nil {
		return 0, err
	}
	if e.traces && trace != nil {
		e.mu.Lock()
		e.LastAlg2Trace = trace
		e.mu.Unlock()
	}
	return f, nil
}

// AnswerBatch implements mech.BatchEstimator.
func (e *hdgEstimator) AnswerBatch(qs []query.Query) ([]float64, error) {
	return mech.AnswerQueries(e, qs)
}

// Granularity returns the granularities the fit used.
func (e *hdgEstimator) Granularity() (g1, g2 int) { return e.G1, e.G2 }
