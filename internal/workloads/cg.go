package workloads

import (
	"fmt"
	"math/rand"

	"aptget/internal/ir"
	"aptget/internal/mem"
)

// CG is the NAS Conjugate Gradient memory kernel: sparse
// matrix-vector products over a random CSR matrix (the delinquent load
// is the gather p[col[e]]) interleaved with the dot products and axpy
// updates of the CG recurrence. The arithmetic is integer (scaled), and
// the step size is the integer quotient of the two dot products — a
// faithful reproduction of the access pattern, with the floating-point
// convergence math simplified (documented in DESIGN.md).
type CG struct {
	Label  string
	N      int64 // rows
	PerRow int64 // nonzeros per row
	Iters  int64
	Seed   int64

	rowptr, col, val ir.Array
	p, q, x, meta    ir.Array

	nRow, nCol, nVal []int64
	wantX, wantQ     []int64
}

// NewCG builds the workload: a uniformly random sparse matrix with
// PerRow nonzeros per row.
func NewCG(n, perRow, iters int64) *CG {
	w := newCG(n, perRow, iters)
	w.genMatrix()
	w.wantX, w.wantQ = w.native()
	return w
}

// newCG is NewCG without the matrix and the native reference: enough to
// Build.
func newCG(n, perRow, iters int64) *CG {
	return &CG{Label: "CG", N: n, PerRow: perRow, Iters: iters, Seed: 47}
}

func (w *CG) genMatrix() {
	rng := rand.New(rand.NewSource(w.Seed))
	w.nRow = make([]int64, w.N+1)
	m := w.N * w.PerRow
	w.nCol = make([]int64, m)
	w.nVal = make([]int64, m)
	for i := int64(0); i < w.N; i++ {
		w.nRow[i+1] = (i + 1) * w.PerRow
		for k := int64(0); k < w.PerRow; k++ {
			w.nCol[i*w.PerRow+k] = rng.Int63n(w.N)
			w.nVal[i*w.PerRow+k] = 1 + rng.Int63n(7)
		}
	}
}

// native mirrors the IR program exactly.
func (w *CG) native() (x, q []int64) {
	n := w.N
	p := make([]int64, n)
	q = make([]int64, n)
	x = make([]int64, n)
	for i := int64(0); i < n; i++ {
		p[i] = (i % 7) + 1
	}
	for it := int64(0); it < w.Iters; it++ {
		// q = A p
		for r := int64(0); r < n; r++ {
			var sum int64
			for e := w.nRow[r]; e < w.nRow[r+1]; e++ {
				sum += w.nVal[e] * p[w.nCol[e]]
			}
			q[r] = sum
		}
		// alpha = (p·p) / max(p·q, 1)
		var pp, pq int64
		for i := int64(0); i < n; i++ {
			pp += p[i] * p[i]
			pq += p[i] * q[i]
		}
		if pq < 1 {
			pq = 1
		}
		alpha := pp / pq
		// x += alpha*p ; p = q >> 4 (re-seed direction from q, scaled down)
		for i := int64(0); i < n; i++ {
			x[i] += alpha * p[i]
			p[i] = q[i] >> 4
		}
	}
	return x, q
}

// Name implements core.Workload.
func (w *CG) Name() string { return w.Label }

// Build implements core.Workload.
func (w *CG) Build() (*ir.Program, error) {
	b := ir.NewBuilder(w.Label)
	w.rowptr = b.Alloc("rowptr", w.N+1, 8)
	w.col = b.Alloc("col", w.N*w.PerRow, 8)
	w.val = b.Alloc("val", w.N*w.PerRow, 8)
	w.p = b.Alloc("p", w.N, 8)
	w.q = b.Alloc("q", w.N, 8)
	w.x = b.Alloc("x", w.N, 8)
	w.meta = b.Alloc("meta", 2, 8) // [0]=pp, [1]=pq

	zero := b.Const(0)
	one := b.Const(1)
	n := b.Const(w.N)

	b.Loop("it", zero, b.Const(w.Iters), 1, func(it ir.Value) {
		// q = A p
		b.Loop("row", zero, n, 1, func(r ir.Value) {
			b.StoreElem(w.q, r, zero)
			rs := b.LoadElem(w.rowptr, r)
			re := b.LoadElem(w.rowptr, b.Add(r, one))
			b.Loop("e", rs, re, 1, func(e ir.Value) {
				v := b.LoadElem(w.col, e)
				pv := b.Named(b.LoadElem(w.p, v), "p[col[e]]") // delinquent load
				av := b.LoadElem(w.val, e)
				acc := b.LoadElem(w.q, r)
				b.StoreElem(w.q, r, b.Add(acc, b.Mul(av, pv)))
			})
		})
		// dot products
		b.StoreElem(w.meta, zero, zero)
		b.StoreElem(w.meta, one, zero)
		b.Loop("dot", zero, n, 1, func(i ir.Value) {
			pi := b.LoadElem(w.p, i)
			qi := b.LoadElem(w.q, i)
			pp := b.LoadElem(w.meta, zero)
			b.StoreElem(w.meta, zero, b.Add(pp, b.Mul(pi, pi)))
			pq := b.LoadElem(w.meta, one)
			b.StoreElem(w.meta, one, b.Add(pq, b.Mul(pi, qi)))
		})
		// alpha and the vector updates
		pp := b.LoadElem(w.meta, zero)
		pq := b.LoadElem(w.meta, one)
		pqc := b.Select(b.Cmp(ir.PredLT, pq, one), one, pq)
		alpha := b.Div(pp, pqc)
		b.Loop("axpy", zero, n, 1, func(i ir.Value) {
			pi := b.LoadElem(w.p, i)
			xi := b.LoadElem(w.x, i)
			b.StoreElem(w.x, i, b.Add(xi, b.Mul(alpha, pi)))
			qi := b.LoadElem(w.q, i)
			b.StoreElem(w.p, i, b.Shr(qi, b.Const(4)))
		})
	})
	return b.Finish(), nil
}

// InitMem implements core.Workload.
func (w *CG) InitMem(a *mem.Arena) {
	for i, v := range w.nRow {
		a.Write(w.rowptr.Addr(int64(i)), v, 8)
	}
	for i := range w.nCol {
		a.Write(w.col.Addr(int64(i)), w.nCol[i], 8)
		a.Write(w.val.Addr(int64(i)), w.nVal[i], 8)
	}
	for i := int64(0); i < w.N; i++ {
		a.Write(w.p.Addr(i), (i%7)+1, 8)
	}
}

// Verify implements core.Workload.
func (w *CG) Verify(a *mem.Arena) error {
	if err := expect(a, w.x, w.wantX, "CG: x"); err != nil {
		return fmt.Errorf("cg: %w", err)
	}
	if err := expect(a, w.q, w.wantQ, "CG: q"); err != nil {
		return fmt.Errorf("cg: %w", err)
	}
	return nil
}
