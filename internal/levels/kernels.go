package levels

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Generic kernel bodies: one Mttkrp, one Ttv, one Ttm, each
// instantiating over any hierarchy. They are the composition dividend
// of the level abstraction — a new format gets all three by declaring
// its levels. They serve every CSF and blocked-CSF grid cell; the COO
// and HiCOO cells keep core's hand-tuned kernels, which the agreement
// tests pin these against.

// Mttkrp computes the matricized-tensor-times-Khatri-Rao product for
// one output mode over any hierarchy whose prefix up to the output
// mode's completion contains only output-mode levels and partial
// levels of other modes (the mode orders the generated grid prepares).
// Parallelism is over root nodes; when the root level belongs to the
// output mode (every declared signature, slot 0), distinct roots
// contribute distinct output-row bits, so the updates are race-free
// without atomics — CSF's structural advantage, inherited generically.
func Mttkrp(h *Hierarchy, mode int, mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	order := h.Order()
	if len(mats) != order {
		return nil, fmt.Errorf("levels: got %d factor matrices, want %d", len(mats), order)
	}
	r := 0
	for n, u := range mats {
		if n == mode {
			continue
		}
		if u == nil {
			return nil, fmt.Errorf("levels: factor matrix %d is nil", n)
		}
		if r == 0 {
			r = u.Cols
		}
		if u.Rows != int(h.Dims[n]) || u.Cols != r {
			return nil, fmt.Errorf("levels: factor %d is %dx%d, want %dx%d", n, u.Rows, u.Cols, h.Dims[n], r)
		}
	}
	complete := h.CompletionLevel(mode)
	if complete < 0 || complete >= h.Depth()-1 {
		return nil, fmt.Errorf("levels: %s cannot instantiate Mttkrp for mode %d (completes at level %d)", h.Sig.Name, mode, complete)
	}
	for l := 0; l < complete; l++ {
		if h.Mode(l) != mode && !h.Sig.Levels[l].Partial {
			return nil, fmt.Errorf("levels: %s level %d completes mode %d before output mode %d", h.Sig.Name, l, h.Mode(l), mode)
		}
	}
	atomic := h.Mode(0) != mode
	out := tensor.NewMatrix(int(h.Dims[mode]), r)
	err := parallel.For(h.NumNodes(0), opt, func(lo, hi, _ int) {
		w := &mttkrpWalker{
			h: h, mode: mode, mats: mats, r: r, out: out, atomic: atomic,
			complete: complete,
			idx:      make([]tensor.Index, h.Order()),
			scratch:  make([]tensor.Value, h.Depth()*r),
		}
		w.descend(0, lo, hi)
	})
	return out, err
}

type mttkrpWalker struct {
	h        *Hierarchy
	mode     int
	mats     []*tensor.Matrix
	r        int
	out      *tensor.Matrix
	atomic   bool
	complete int
	idx      []tensor.Index // partial coordinate bits per tensor mode
	scratch  []tensor.Value // one r-vector per level
}

// descend walks levels 0..complete, assembling coordinate bits; at the
// output mode's completion it switches to the factor-accumulating
// gather over the subtree and flushes the r-vector into the output row.
func (w *mttkrpWalker) descend(level, lo, hi int) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	for node := lo; node < hi; node++ {
		save := w.idx[m]
		w.idx[m] = save | h.Crd[level][node]<<d.Shift
		clo, chi := int(h.Ptr[level][node]), int(h.Ptr[level][node+1])
		if level == w.complete {
			g := w.scratch[level*w.r : (level+1)*w.r]
			for i := range g {
				g[i] = 0
			}
			w.gather(level+1, clo, chi, g)
			row := w.out.Row(int(w.idx[w.mode]))
			if w.atomic {
				for i := 0; i < w.r; i++ {
					parallel.AtomicAddFloat32(&row[i], g[i])
				}
			} else {
				for i := 0; i < w.r; i++ {
					row[i] += g[i]
				}
			}
		} else {
			w.descend(level+1, clo, chi)
		}
		w.idx[m] = save
	}
}

// gather accumulates the subtree's Hadamard product of factor rows into
// dst: Σ_leaf val · ∏_{n≠mode} U_n(i_n,:), factored CSF-style so a
// factor row multiplies once per node, not once per leaf.
func (w *mttkrpWalker) gather(level, lo, hi int, dst []tensor.Value) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	last := h.Depth() - 1
	if level == last {
		u := w.mats[m]
		for node := lo; node < hi; node++ {
			full := w.idx[m] | h.Crd[level][node]<<d.Shift
			v := h.Vals[node]
			urow := u.Row(int(full))
			for i := 0; i < w.r; i++ {
				dst[i] += v * urow[i]
			}
		}
		return
	}
	if d.Partial {
		// Coarse bits only: stash and recurse; the factor applies at the
		// mode's completion level.
		for node := lo; node < hi; node++ {
			save := w.idx[m]
			w.idx[m] = save | h.Crd[level][node]<<d.Shift
			w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), dst)
			w.idx[m] = save
		}
		return
	}
	u := w.mats[m]
	buf := w.scratch[level*w.r : (level+1)*w.r]
	for node := lo; node < hi; node++ {
		full := w.idx[m] | h.Crd[level][node]
		for i := range buf {
			buf[i] = 0
		}
		save := w.idx[m]
		w.idx[m] = full
		w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), buf)
		w.idx[m] = save
		urow := u.Row(int(full))
		for i := 0; i < w.r; i++ {
			dst[i] += urow[i] * buf[i]
		}
	}
}

// Ttv computes tensor-times-vector in the product mode over any
// hierarchy whose leaf level completes the product mode (the mode
// order the generated grid prepares: product mode last). Every node at
// the second-deepest level reduces its leaves to one output non-zero,
// for arbitrary level structures — including blocked ones, where the
// leaf coordinate combines with coarse bits collected along the path.
func Ttv(h *Hierarchy, mode int, v tensor.Vector, opt parallel.Options) (*tensor.COO, error) {
	if err := checkLeafKernel(h, mode, len(v)); err != nil {
		return nil, err
	}
	last := h.Depth() - 1
	parents := h.NumNodes(last - 1)
	outDims := make([]tensor.Index, 0, h.Order()-1)
	for n, d := range h.Dims {
		if n != mode {
			outDims = append(outDims, d)
		}
	}
	out := &tensor.COO{
		Dims: outDims,
		Inds: parentColumns(h.Order()-1, parents),
		Vals: make([]tensor.Value, parents),
	}
	// Sequential upper walk fills every parent's output coordinates and
	// the product mode's coarse bits; the leaf reduction then runs in
	// parallel over parents.
	coarse := fillParents(h, mode, out.Inds)
	fptr := h.Ptr[last-1]
	leafCrd := h.Crd[last]
	shift := h.Sig.Levels[last].Shift
	err := parallel.For(parents, opt, func(lo, hi, _ int) {
		for p := lo; p < hi; p++ {
			var acc tensor.Value
			hiBits := coarse[p]
			for x := fptr[p]; x < fptr[p+1]; x++ {
				acc += h.Vals[x] * v[hiBits|leafCrd[x]<<shift]
			}
			out.Vals[p] = acc
		}
	})
	return out, err
}

// Ttm computes tensor-times-matrix in the product mode: the product
// mode becomes dense (R values per surviving fiber), so the output is
// semi-sparse, matching the core kernels' convention (dims[mode] = R,
// the product mode dense).
func Ttm(h *Hierarchy, mode int, u *tensor.Matrix, opt parallel.Options) (*tensor.SemiCOO, error) {
	if err := checkLeafKernel(h, mode, u.Rows); err != nil {
		return nil, err
	}
	last := h.Depth() - 1
	parents := h.NumNodes(last - 1)
	r := u.Cols

	outDims := append([]tensor.Index(nil), h.Dims...)
	outDims[mode] = tensor.Index(r)
	out := &tensor.SemiCOO{
		Dims:       outDims,
		DenseModes: []int{mode},
		Inds:       parentColumns(h.Order()-1, parents),
		Vals:       make([]tensor.Value, parents*r),
	}
	coarse := fillParents(h, mode, out.Inds)
	fptr := h.Ptr[last-1]
	leafCrd := h.Crd[last]
	shift := h.Sig.Levels[last].Shift
	err := parallel.For(parents, opt, func(lo, hi, _ int) {
		for p := lo; p < hi; p++ {
			fib := out.Vals[p*r : (p+1)*r]
			hiBits := coarse[p]
			for x := fptr[p]; x < fptr[p+1]; x++ {
				v := h.Vals[x]
				urow := u.Row(int(hiBits | leafCrd[x]<<shift))
				for i := 0; i < r; i++ {
					fib[i] += v * urow[i]
				}
			}
		}
	})
	return out, err
}

// checkLeafKernel validates the contract Ttv and Ttm share: the leaf
// level completes the product mode, every other mode completes above
// the leaf, and the operand spans the product-mode dimension.
func checkLeafKernel(h *Hierarchy, mode, operandLen int) error {
	last := h.Depth() - 1
	if last < 1 {
		return fmt.Errorf("levels: %s has a single level; need a parent level", h.Sig.Name)
	}
	if h.Mode(last) != mode || h.Sig.Levels[last].Partial {
		return fmt.Errorf("levels: %s leaf level does not complete mode %d", h.Sig.Name, mode)
	}
	if operandLen != int(h.Dims[mode]) {
		return fmt.Errorf("levels: operand length %d, want %d", operandLen, h.Dims[mode])
	}
	return nil
}

// parentColumns allocates n coordinate columns of the given length.
func parentColumns(n, length int) [][]tensor.Index {
	cols := make([][]tensor.Index, n)
	for i := range cols {
		cols[i] = make([]tensor.Index, length)
	}
	return cols
}

// fillParents walks levels 0..Depth-2 depth-first and writes, for every
// node p of the second-deepest level, the assembled coordinate of each
// non-product mode into cols (one column per non-product mode, ascending
// mode order — the layout COO and semi-sparse outputs share). It returns
// the product mode's partial bits at each such node (blocked
// hierarchies store the product mode's coarse bits above the leaf).
func fillParents(h *Hierarchy, mode int, cols [][]tensor.Index) []tensor.Index {
	parent := h.Depth() - 2
	coarse := make([]tensor.Index, h.NumNodes(parent))
	w := &parentWalker{
		h:      h,
		parent: parent,
		idx:    make([]tensor.Index, h.Order()),
		dst:    make([][]tensor.Index, h.Order()),
	}
	c := 0
	for n := range w.dst {
		if n == mode {
			w.dst[n] = coarse
		} else {
			w.dst[n] = cols[c]
			c++
		}
	}
	w.walk(0, 0, h.NumNodes(0))
	return coarse
}

// parentWalker carries fillParents' state down the recursion. dst holds
// one destination column per tensor mode, indexed by parent node; the
// product mode's column receives the coarse bits.
type parentWalker struct {
	h      *Hierarchy
	parent int            // the second-deepest level
	idx    []tensor.Index // coordinate bits assembled along the path
	dst    [][]tensor.Index
}

// walk visits nodes [lo, hi) of one level. Nodes of the parent level
// are numbered in visit order, so node doubles as the output position;
// across one sibling range only the level's own mode varies, so every
// other column is a constant fill.
func (w *parentWalker) walk(level, lo, hi int) {
	h := w.h
	m := h.Mode(level)
	shift := h.Sig.Levels[level].Shift
	crd := h.Crd[level]
	save := w.idx[m]
	if level == w.parent {
		for n, col := range w.dst {
			if n == m {
				for node := lo; node < hi; node++ {
					col[node] = save | crd[node]<<shift
				}
				continue
			}
			fill := w.idx[n]
			for node := lo; node < hi; node++ {
				col[node] = fill
			}
		}
		return
	}
	ptr := h.Ptr[level]
	for node := lo; node < hi; node++ {
		w.idx[m] = save | crd[node]<<shift
		w.walk(level+1, int(ptr[node]), int(ptr[node+1]))
	}
	w.idx[m] = save
}
