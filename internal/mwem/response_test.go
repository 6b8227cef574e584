package mwem

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"privmdr/internal/ldprand"
)

// gridRects is HDG's constraint geometry for one pair: g1 1-D cells on the
// first attribute, g1 on the second, then the g2×g2 2-D cells.
func gridRects(c, g1, g2 int) []Rect {
	var rects []Rect
	w1, w2 := c/g1, c/g2
	for i := range g1 {
		rects = append(rects, Rect{R0: i * w1, R1: (i+1)*w1 - 1, C0: 0, C1: c - 1})
	}
	for i := range g1 {
		rects = append(rects, Rect{R0: 0, R1: c - 1, C0: i * w1, C1: (i+1)*w1 - 1})
	}
	for i := range g2 * g2 {
		r, col := i/g2, i%g2
		rects = append(rects, Rect{R0: r * w2, R1: (r+1)*w2 - 1, C0: col * w2, C1: (col+1)*w2 - 1})
	}
	return rects
}

// laneFreqs draws one lane's constraint frequencies from a random c×c
// distribution. Lanes cycle through four kinds so one call mixes
// convergence behaviours: exact (consistent, converges early), noisy
// (inconsistent, runs to MaxIters), zeroed (the first 2-D row band's 1-D
// strips are 0, so that band's 2-D cells hit the y == 0 skip), and
// negative (post-processing-free estimates can go below zero).
func laneFreqs(rng *rand.Rand, c, g1, g2, kind int) []float64 {
	dist := make([]float64, c*c)
	sum := 0.0
	for i := range dist {
		dist[i] = rng.Float64() * rng.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	var freqs []float64
	for _, cell := range gridCellsFromDist(dist, c, g1, g2) {
		freqs = append(freqs, cell.Freq)
	}
	switch kind % 4 {
	case 1:
		for i := range freqs {
			freqs[i] *= 1 + 0.2*(rng.Float64()-0.5)
		}
	case 2:
		for i := range g1 / g2 {
			freqs[i] = 0
		}
	case 3:
		for i := range freqs {
			freqs[i] += 0.01 * (rng.Float64() - 0.7)
		}
	}
	return freqs
}

// requireOracle checks the kernel's matrices and traces against the
// per-cell oracle, bit for bit, lane by lane.
func requireOracle(t *testing.T, c int, rects []Rect, freqs [][]float64, opts Options) [][]float64 {
	t.Helper()
	ms, traces, err := BuildResponseMatrices(c, rects, freqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(freqs) || len(traces) != len(freqs) {
		t.Fatalf("%d lanes in, %d matrices and %d traces out", len(freqs), len(ms), len(traces))
	}
	for l, f := range freqs {
		want, wantTrace, err := BuildResponseMatrix(c, cellsOf(rects, f), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(traces[l], wantTrace) {
			t.Fatalf("lane %d of %d: trace %v, oracle %v", l, len(freqs), traces[l], wantTrace)
		}
		if len(ms[l]) != len(want) {
			t.Fatalf("lane %d of %d: %d cells, oracle %d", l, len(freqs), len(ms[l]), len(want))
		}
		for i := range want {
			if math.Float64bits(ms[l][i]) != math.Float64bits(want[i]) {
				t.Fatalf("lane %d of %d: cell %d = %v, oracle %v", l, len(freqs), i, ms[l][i], want[i])
			}
		}
	}
	return traces
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestResponseMatricesMatchOracle(t *testing.T) {
	for _, c := range []int{16, 32, 64} {
		for _, g := range [][2]int{{c / 4, 4}, {8, 8}} { // nested, equal
			g1, g2 := g[0], g[1]
			rects := gridRects(c, g1, g2)
			rng := ldprand.New(uint64(c*100 + g1))
			lanes := make([][]float64, 16)
			for l := range lanes {
				lanes[l] = laneFreqs(rng, c, g1, g2, l)
			}
			for _, opts := range []Options{{MaxIters: 40, Tol: 1e-9}, {MaxIters: 3, Tol: 1e-300}} {
				t.Run(fmt.Sprintf("c%d/g%d-%d/iters%d", c, g1, g2, opts.MaxIters), func(t *testing.T) {
					lengths := map[int]bool{}
					for n := 1; n <= len(lanes); n++ {
						for _, tr := range requireOracle(t, c, rects, lanes[:n], opts) {
							lengths[len(tr)] = true
						}
					}
					if !lengths[opts.MaxIters] {
						t.Errorf("no lane ran to the MaxIters cap %d: trace lengths %v", opts.MaxIters, lengths)
					}
					if opts.MaxIters > 3 && len(lengths) < 2 {
						t.Errorf("every lane converged at the same sweep: trace lengths %v", lengths)
					}
				})
			}
		}
	}
}

func TestResponseMatricesInputErrors(t *testing.T) {
	if _, _, err := BuildResponseMatrices(0, nil, nil, Options{}); err == nil {
		t.Error("domain 0 should fail")
	}
	rects := []Rect{{R0: 0, R1: 3, C0: 0, C1: 4}}
	if _, _, err := BuildResponseMatrices(4, rects, [][]float64{{1}}, Options{}); err == nil {
		t.Error("rectangle past the domain should fail")
	}
	rects = []Rect{{R0: 2, R1: 1, C0: 0, C1: 3}}
	if _, _, err := BuildResponseMatrices(4, rects, [][]float64{{1}}, Options{}); err == nil {
		t.Error("empty rectangle should fail")
	}
	rects = []Rect{{R0: 0, R1: 3, C0: 0, C1: 3}}
	if _, _, err := BuildResponseMatrices(4, rects, [][]float64{{1, 2}}, Options{}); err == nil {
		t.Error("frequency count mismatch should fail")
	}
	ms, traces, err := BuildResponseMatrices(4, rects, nil, Options{})
	if err != nil || len(ms) != 0 || len(traces) != 0 {
		t.Errorf("zero lanes: %v, %v, %v", ms, traces, err)
	}
}

// FuzzBuildResponseMatrices drives the kernel with arbitrary constraint
// geometries — overlapping, nested, unaligned rectangles, not just HDG's
// grids — lane counts, frequencies and stopping rules, and checks every
// lane against the per-cell oracle bit for bit.
func FuzzBuildResponseMatrices(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(3), uint8(20), uint8(9), []byte{0, 3, 0, 15, 0, 15, 4, 7, 4, 11, 2, 9, 8, 15, 0, 3})
	f.Add(uint64(2), uint8(8), uint8(11), uint8(5), uint8(30), []byte{1, 1, 1, 1, 0, 7, 0, 7, 3, 5, 6, 6})
	f.Add(uint64(3), uint8(13), uint8(16), uint8(40), uint8(2), []byte{0, 12, 0, 0, 0, 0, 0, 12, 5, 9, 2, 11})
	f.Fuzz(func(t *testing.T, seed uint64, cb, lanes, iters, tolExp uint8, geom []byte) {
		c := 1 + int(cb)%24
		var rects []Rect
		for i := 0; i+4 <= len(geom) && len(rects) < 40; i += 4 {
			r0, r1 := int(geom[i])%c, int(geom[i+1])%c
			c0, c1 := int(geom[i+2])%c, int(geom[i+3])%c
			rects = append(rects, Rect{R0: min(r0, r1), R1: max(r0, r1), C0: min(c0, c1), C1: max(c0, c1)})
		}
		rng := ldprand.New(seed)
		freqs := make([][]float64, 1+int(lanes)%16)
		for l := range freqs {
			freqs[l] = make([]float64, len(rects))
			for i := range freqs[l] {
				switch rng.IntN(8) {
				case 0: // zero: later rectangles inside this one skip on y == 0
				case 1:
					freqs[l][i] = -rng.Float64() / 4
				default:
					freqs[l][i] = rng.Float64() * float64(len(rects)) / 8
				}
			}
		}
		opts := Options{MaxIters: 1 + int(iters)%50, Tol: math.Pow(10, -float64(tolExp%16))}
		requireOracle(t, c, rects, freqs, opts)
	})
}

// BenchmarkBuildResponseMatrix measures a one-lane kernel call — the lazy
// single-pair build — against the per-cell oracle at the serving
// benchmark's geometry (c=64, g₁=16, g₂=4, Tol=1e-6) on inconsistent
// inputs that run all MaxIters sweeps, as noisy estimates do.
func BenchmarkBuildResponseMatrix(b *testing.B) {
	const c, g1, g2 = 64, 16, 4
	rects := gridRects(c, g1, g2)
	freqs := laneFreqs(ldprand.New(1), c, g1, g2, 1)
	opts := Options{Tol: 1e-6}
	b.Run("kernel", func(b *testing.B) {
		for b.Loop() {
			if _, _, err := BuildResponseMatrices(c, rects, [][]float64{freqs}, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	cells := cellsOf(rects, freqs)
	b.Run("per-cell", func(b *testing.B) {
		for b.Loop() {
			if _, _, err := BuildResponseMatrix(c, cells, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
