package mwem

import (
	"fmt"
	"math"
)

// CellConstraint is one grid cell's contribution to Algorithm 1 in the
// per-cell oracle's input form: a constraint rectangle and the cell's
// frequency.
type CellConstraint struct {
	R0, R1, C0, C1 int
	Freq           float64
}

// BuildResponseMatrix is the per-cell Algorithm 1 loop the batched
// BuildResponseMatrices kernel replaced, kept as its oracle: starting from
// the uniform matrix it repeatedly rescales each constraint's rectangle cell
// by cell so its mass matches the frequency, until the per-sweep L1 change
// drops below opts.Tol. The product is rounded before the subtraction, as in
// the kernel, so the two agree bit for bit on every GOARCH.
func BuildResponseMatrix(c int, cells []CellConstraint, opts Options) ([]float64, []float64, error) {
	if c < 1 {
		return nil, nil, fmt.Errorf("mwem: domain size %d < 1", c)
	}
	opts = opts.withDefaults()
	m := make([]float64, c*c)
	init := 1 / float64(c*c)
	for i := range m {
		m[i] = init
	}
	var trace []float64
	for iter := 0; iter < opts.MaxIters; iter++ {
		change := 0.0
		for _, s := range cells {
			y := 0.0
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*c : r*c+c]
				for col := s.C0; col <= s.C1; col++ {
					y += row[col]
				}
			}
			if y == 0 {
				continue
			}
			factor := s.Freq / y
			if factor == 1 {
				continue
			}
			for r := s.R0; r <= s.R1; r++ {
				row := m[r*c : r*c+c]
				for col := s.C0; col <= s.C1; col++ {
					old := row[col]
					row[col] = float64(old * factor)
					change += math.Abs(row[col] - old)
				}
			}
		}
		trace = append(trace, change)
		if change < opts.Tol {
			break
		}
	}
	return m, trace, nil
}

// cellsOf pairs the kernel's shared rectangles with one lane's frequencies
// in the oracle's input form.
func cellsOf(rects []Rect, freqs []float64) []CellConstraint {
	cells := make([]CellConstraint, len(rects))
	for i, r := range rects {
		cells[i] = CellConstraint{R0: r.R0, R1: r.R1, C0: r.C0, C1: r.C1, Freq: freqs[i]}
	}
	return cells
}
