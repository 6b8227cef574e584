package mwem

import (
	"fmt"
	"math"
	"slices"
)

// Rect is one Algorithm 1 constraint: the inclusive value rectangle a grid
// cell covers in a pair's [0,c)×[0,c) domain (rows = first attribute; 1-D
// cells span the full range of the other attribute).
type Rect struct {
	R0, R1, C0, C1 int
}

// BuildResponseMatrices runs Algorithm 1 for len(freqs) attribute pairs that
// share one constraint geometry: lane l starts from the uniform c×c matrix
// and repeatedly rescales each rects[i] so its mass matches freqs[l][i],
// sweeping the constraints in order, until that lane's per-sweep L1 change
// drops below opts.Tol (or opts.MaxIters sweeps). It returns each lane's
// matrix (row-major) and per-sweep change trace.
//
// Every rectangle edge is a boundary of the rectangles' common refinement,
// and every update rescales whole rectangles of it, so the cells of one
// refinement block stay bitwise equal throughout: the kernel stores one
// value per block and lane, and performs each multiply and |new−old| once
// per block. The running sums — the rectangle mass y and the sweep's change
// — still add one term per cell in row-major order, so each lane executes
// exactly the IEEE operation sequence of the per-cell loop and its matrix
// and trace are bit-identical to it, on every GOARCH. Lanes run in
// interleaved groups of laneWidth on the calling goroutine, which lets one
// core overlap their otherwise serial add chains.
func BuildResponseMatrices(c int, rects []Rect, freqs [][]float64, opts Options) ([][]float64, [][]float64, error) {
	if c < 1 {
		return nil, nil, fmt.Errorf("mwem: domain size %d < 1", c)
	}
	for i, r := range rects {
		if r.R0 < 0 || r.R0 > r.R1 || r.R1 >= c || r.C0 < 0 || r.C0 > r.C1 || r.C1 >= c {
			return nil, nil, fmt.Errorf("mwem: constraint %d rectangle [%d,%d]×[%d,%d] outside [0,%d)²", i, r.R0, r.R1, r.C0, r.C1, c)
		}
	}
	for l, f := range freqs {
		if len(f) != len(rects) {
			return nil, nil, fmt.Errorf("mwem: lane %d has %d frequencies for %d constraints", l, len(f), len(rects))
		}
	}
	opts = opts.withDefaults()
	ref := refine(c, rects)
	ms := make([][]float64, len(freqs))
	traces := make([][]float64, len(freqs))
	for start := 0; start < len(freqs); {
		// A single lane runs alone, so a one-pair build costs what the
		// per-cell loop did; any other group runs laneWidth wide, padded
		// when short.
		w := laneWidth
		if len(freqs)-start == 1 {
			w = 1
		}
		end := min(start+w, len(freqs))
		ref.run(w, freqs[start:end], opts, ms[start:end], traces[start:end])
		start = end
	}
	return ms, traces, nil
}

// laneWidth is the interleave width of a lane group. Eight independent add
// chains cover a floating-point add's latency at two adds per cycle; wider
// groups only spill more of their accumulators.
const laneWidth = 8

// refinement is the common refinement of the constraint rectangles' edges:
// block (bi, bj) covers rows [rows[bi], rows[bi+1]) and columns
// [cols[bj], cols[bj+1]).
type refinement struct {
	c                int
	rows, cols       []int
	heights, widths  []int
	spans            []span
	nbr, nbc, blocks int
}

// span is a constraint rectangle in block coordinates (inclusive).
type span struct{ bi0, bi1, bj0, bj1 int }

func refine(c int, rects []Rect) *refinement {
	rows, cols := []int{0, c}, []int{0, c}
	for _, r := range rects {
		rows = append(rows, r.R0, r.R1+1)
		cols = append(cols, r.C0, r.C1+1)
	}
	slices.Sort(rows)
	slices.Sort(cols)
	rows, cols = slices.Compact(rows), slices.Compact(cols)
	ref := &refinement{c: c, rows: rows, cols: cols, nbr: len(rows) - 1, nbc: len(cols) - 1}
	ref.blocks = ref.nbr * ref.nbc
	ref.heights = make([]int, ref.nbr)
	for i := range ref.heights {
		ref.heights[i] = rows[i+1] - rows[i]
	}
	ref.widths = make([]int, ref.nbc)
	for j := range ref.widths {
		ref.widths[j] = cols[j+1] - cols[j]
	}
	ref.spans = make([]span, len(rects))
	for i, r := range rects {
		bi0, _ := slices.BinarySearch(rows, r.R0)
		bi1, _ := slices.BinarySearch(rows, r.R1+1)
		bj0, _ := slices.BinarySearch(cols, r.C0)
		bj1, _ := slices.BinarySearch(cols, r.C1+1)
		ref.spans[i] = span{bi0, bi1 - 1, bj0, bj1 - 1}
	}
	return ref
}

// run fits one interleaved group of w lanes (len(freqs) ≤ w; the rest are
// padding that never updates). Block values and per-block changes are
// stored block-major with the lanes adjacent, so one block's w values load
// together.
func (ref *refinement) run(w int, freqs [][]float64, opts Options, ms, traces [][]float64) {
	vals := make([]float64, ref.blocks*w)
	init := 1 / float64(ref.c*ref.c)
	for i := range vals {
		vals[i] = init
	}
	deltas := make([]float64, ref.blocks*w)
	y := make([]float64, w)
	change := make([]float64, w)
	factor := make([]float64, w)
	live := make([]bool, w) // a real lane that has not yet converged
	alive := len(freqs)
	for l := range alive {
		live[l] = true
	}
	sum := ref.sum1
	if w == laneWidth {
		sum = ref.sum8
	}
	for iter := 0; iter < opts.MaxIters && alive > 0; iter++ {
		clear(change)
		for ci, sp := range ref.spans {
			clear(y)
			sum(y, vals, sp)
			update := false
			for l := range w {
				// Factor 1 is how a lane skips: multiplying by it changes
				// no bits, and its zero deltas leave change unchanged.
				f := 1.0
				if live[l] && y[l] != 0 {
					f = freqs[l][ci] / y[l]
				}
				factor[l] = f
				update = update || f != 1
			}
			if !update {
				continue
			}
			for bi := sp.bi0; bi <= sp.bi1; bi++ {
				for bj := sp.bj0; bj <= sp.bj1; bj++ {
					b := (bi*ref.nbc + bj) * w
					v, d := vals[b:b+w], deltas[b:b+w]
					for l, f := range factor {
						if f == 1 {
							d[l] = 0
							continue
						}
						old := v[l]
						// The explicit conversion rounds the product
						// before the subtraction, so no GOARCH may fuse
						// the two into an FMA.
						v[l] = float64(old * f)
						d[l] = math.Abs(v[l] - old)
					}
				}
			}
			sum(change, deltas, sp)
		}
		for l := range freqs {
			if !live[l] {
				continue
			}
			traces[l] = append(traces[l], change[l])
			if change[l] < opts.Tol {
				live[l] = false
				alive--
			}
		}
	}
	for l := range ms {
		ms[l] = ref.expand(vals, w, l)
	}
}

// expand writes lane l's block values out as the full c×c matrix.
func (ref *refinement) expand(vals []float64, w, l int) []float64 {
	c := ref.c
	m := make([]float64, c*c)
	for bi := range ref.nbr {
		for r := ref.rows[bi]; r < ref.rows[bi+1]; r++ {
			row := m[r*c : r*c+c]
			for bj := range ref.nbc {
				v := vals[(bi*ref.nbc+bj)*w+l]
				for col := ref.cols[bj]; col < ref.cols[bj+1]; col++ {
					row[col] = v
				}
			}
		}
	}
	return m
}
