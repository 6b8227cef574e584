package mwem

// The sum kernels add, for every cell of a span in row-major order, the
// cell's block value from field to its lane's accumulator in acc: one add
// per cell and lane, in the order the per-cell loop accumulates rectangle
// masses and sweep changes. Each width holds its accumulators and the
// current block's values in locals, so the lanes' add chains are
// independent and overlap in the pipeline, and unrolls the repeat over a
// block's columns, so the short inner loop costs few branches per add.

func (ref *refinement) sum1(acc, field []float64, sp span) {
	a0 := acc[0]
	for bi := sp.bi0; bi <= sp.bi1; bi++ {
		row := field[bi*ref.nbc : (bi+1)*ref.nbc]
		for h := ref.heights[bi]; h > 0; h-- {
			for bj := sp.bj0; bj <= sp.bj1; bj++ {
				v0 := row[bj]
				k := ref.widths[bj]
				for ; k >= 4; k -= 4 {
					a0 += v0
					a0 += v0
					a0 += v0
					a0 += v0
				}
				for ; k > 0; k-- {
					a0 += v0
				}
			}
		}
	}
	acc[0] = a0
}

func (ref *refinement) sum8(acc, field []float64, sp span) {
	a := (*[8]float64)(acc)
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	for bi := sp.bi0; bi <= sp.bi1; bi++ {
		row := field[bi*ref.nbc*8 : (bi+1)*ref.nbc*8]
		for h := ref.heights[bi]; h > 0; h-- {
			for bj := sp.bj0; bj <= sp.bj1; bj++ {
				v := (*[8]float64)(row[bj*8:])
				v0, v1, v2, v3, v4, v5, v6, v7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
				k := ref.widths[bj]
				for ; k >= 2; k -= 2 {
					a0 += v0
					a1 += v1
					a2 += v2
					a3 += v3
					a4 += v4
					a5 += v5
					a6 += v6
					a7 += v7
					a0 += v0
					a1 += v1
					a2 += v2
					a3 += v3
					a4 += v4
					a5 += v5
					a6 += v6
					a7 += v7
				}
				if k > 0 {
					a0 += v0
					a1 += v1
					a2 += v2
					a3 += v3
					a4 += v4
					a5 += v5
					a6 += v6
					a7 += v7
				}
			}
		}
	}
	a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
}
