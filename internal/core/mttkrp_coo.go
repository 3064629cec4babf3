package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MttkrpPlan is the prepared state of a COO Mttkrp kernel in a fixed mode
// (§2.5, §3.2). Unlike the other kernels Mttkrp needs no preprocessing
// (the paper times it without one); the plan only validates shapes and
// owns the dense output matrix Ã ∈ R^{I_n × R}.
type MttkrpPlan struct {
	// X is the input tensor in any non-zero order.
	X *tensor.COO
	// Mode is the Mttkrp mode n.
	Mode int
	// R is the factor-matrix column count.
	R int
	// Out is the dense output matrix, zeroed at the start of each Execute.
	Out *tensor.Matrix
	// LastStrategy records the reduction strategy the most recent
	// ExecuteOMP* call resolved to (for harness reporting).
	LastStrategy parallel.Strategy
}

// PrepareMttkrp validates the mode and allocates the output matrix.
func PrepareMttkrp(x *tensor.COO, mode, r int) (*MttkrpPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Mttkrp mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: Mttkrp needs an order >= 2 tensor")
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: Mttkrp needs R >= 1, got %d", r)
	}
	return &MttkrpPlan{X: x, Mode: mode, R: r, Out: tensor.NewMatrix(int(x.Dims[mode]), r)}, nil
}

// checkMats validates the factor matrices: one per mode, mats[m] of shape
// Dims[m] × R. mats[Mode] participates only via its shape (its values are
// not read), matching the U~(n) update of Equation (5).
func (p *MttkrpPlan) checkMats(mats []*tensor.Matrix) error {
	if len(mats) != p.X.Order() {
		return fmt.Errorf("core: Mttkrp got %d factor matrices, want %d", len(mats), p.X.Order())
	}
	for m, u := range mats {
		if m == p.Mode {
			continue // output slot; may even be nil
		}
		if u == nil {
			return fmt.Errorf("core: Mttkrp factor matrix %d is nil", m)
		}
		if u.Rows != int(p.X.Dims[m]) || u.Cols != p.R {
			return fmt.Errorf("core: Mttkrp factor %d is %dx%d, want %dx%d", m, u.Rows, u.Cols, p.X.Dims[m], p.R)
		}
	}
	return nil
}

// ExecuteSeq runs the kernel sequentially: each row of Ã accumulates the
// non-zero value times the Hadamard product of the other modes' factor
// rows.
func (p *MttkrpPlan) ExecuteSeq(mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	p.executeRange(0, p.X.NNZ(), mats, p.Out.Data, false)
	return p.Out, nil
}

// ExecuteOMP runs COO-Mttkrp-OMP: parallelized by non-zeros with the
// shared output matrix protected per Options.Strategy — "omp atomic"
// updates, or the privatization the paper's Observation 5 points to
// ([42]): each worker accumulates into a pooled private copy of Ã and
// the copies are reduced afterwards, trading memory (T×I_n×R) for
// atomic-free updates. Auto picks per call from the output-size×threads
// vs NNZ shape.
func (p *MttkrpPlan) ExecuteOMP(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	m := p.X.NNZ()
	st, threads := planReduction(opt, m, len(p.Out.Data), m*p.R, 0)
	p.LastStrategy = st
	opt.Threads = threads
	if st == parallel.Privatized {
		if err := privatizedReduce(m, threads, opt, p.Out.Data, func(lo, hi int, priv []tensor.Value) {
			p.executeRange(lo, hi, mats, priv, false)
		}); err != nil {
			return nil, err
		}
		return p.Out, nil
	}
	p.Out.Zero()
	atomicUpd := threads > 1
	if err := parallel.For(m, opt, func(lo, hi, _ int) {
		p.executeRange(lo, hi, mats, p.Out.Data, atomicUpd)
	}); err != nil {
		return nil, err
	}
	return p.Out, nil
}

// ExecuteGPU runs COO-Mttkrp-GPU following ParTI: a 1-D grid of 2-D thread
// blocks (x = matrix columns for coalescing, y = non-zeros) with atomicAdd
// on the output matrix (§3.2.2).
func (p *MttkrpPlan) ExecuteGPU(dev *gpusim.Device, mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	p.Out.Zero()
	m := p.X.NNZ()
	if m == 0 {
		return p.Out, nil
	}
	r := p.R
	ny := gpusim.DefaultBlockThreads / r
	if ny < 1 {
		ny = 1
	}
	block := gpusim.Dim2(r, ny)
	grid := gpusim.Grid1DFor(m, ny)
	out := p.Out.Data
	nInd := p.X.Inds[p.Mode]
	xv := p.X.Vals
	order := p.X.Order()

	if order == 3 {
		// Specialized third-order path, the shape the paper's Table 1
		// analyzes: Ã(i,r) += x · C(k,r) · B(j,r).
		m1, m2 := otherTwoModes(p.Mode)
		bInd, cInd := p.X.Inds[m1], p.X.Inds[m2]
		bd, cd := mats[m1].Data, mats[m2].Data
		if _, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
			x := ctx.BlockIdx.X*ctx.BlockDim.Y + ctx.ThreadIdx.Y
			if x >= m {
				return
			}
			col := ctx.ThreadIdx.X
			v := xv[x] * bd[int(bInd[x])*r+col] * cd[int(cInd[x])*r+col]
			gpusim.AtomicAdd(&out[int(nInd[x])*r+col], v)
		}); err != nil {
			return nil, err
		}
		return p.Out, nil
	}

	if _, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
		x := ctx.BlockIdx.X*ctx.BlockDim.Y + ctx.ThreadIdx.Y
		if x >= m {
			return
		}
		col := ctx.ThreadIdx.X
		v := xv[x]
		for mo := 0; mo < order; mo++ {
			if mo == p.Mode {
				continue
			}
			v *= mats[mo].Data[int(p.X.Inds[mo][x])*r+col]
		}
		gpusim.AtomicAdd(&out[int(nInd[x])*r+col], v)
	}); err != nil {
		return nil, err
	}
	return p.Out, nil
}

// executeRange processes non-zeros [lo, hi), adding into out (a Dims[n]×R
// row-major matrix) either plainly (single writer) or atomically (shared
// writers).
func (p *MttkrpPlan) executeRange(lo, hi int, mats []*tensor.Matrix, out []tensor.Value, atomicUpd bool) {
	r := p.R
	nInd := p.X.Inds[p.Mode]
	xv := p.X.Vals
	if p.X.Order() == 3 {
		m1, m2 := otherTwoModes(p.Mode)
		bInd, cInd := p.X.Inds[m1], p.X.Inds[m2]
		bd, cd := mats[m1].Data, mats[m2].Data
		for x := lo; x < hi; x++ {
			v := xv[x]
			bo := int(bInd[x]) * r
			co := int(cInd[x]) * r
			oo := int(nInd[x]) * r
			if atomicUpd {
				for c := 0; c < r; c++ {
					parallel.AtomicAddFloat32(&out[oo+c], v*bd[bo+c]*cd[co+c])
				}
			} else {
				for c := 0; c < r; c++ {
					out[oo+c] += v * bd[bo+c] * cd[co+c]
				}
			}
		}
		return
	}
	prod := make([]tensor.Value, r)
	for x := lo; x < hi; x++ {
		v := xv[x]
		for c := 0; c < r; c++ {
			prod[c] = v
		}
		for mo := 0; mo < p.X.Order(); mo++ {
			if mo == p.Mode {
				continue
			}
			row := mats[mo].Row(int(p.X.Inds[mo][x]))
			for c := 0; c < r; c++ {
				prod[c] *= row[c]
			}
		}
		oo := int(nInd[x]) * r
		if atomicUpd {
			for c := 0; c < r; c++ {
				parallel.AtomicAddFloat32(&out[oo+c], prod[c])
			}
		} else {
			for c := 0; c < r; c++ {
				out[oo+c] += prod[c]
			}
		}
	}
}

func otherTwoModes(mode int) (int, int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// FlopCount returns the floating-point work of one execution: N·M·R flops
// for an order-N tensor (3MR for third order, matching Table 1).
func (p *MttkrpPlan) FlopCount() int64 {
	return int64(p.X.Order()) * int64(p.X.NNZ()) * int64(p.R)
}

// Mttkrp is the convenience one-shot form: prepare and execute
// sequentially.
func Mttkrp(x *tensor.COO, mats []*tensor.Matrix, mode int) (*tensor.Matrix, error) {
	r := 0
	for m, u := range mats {
		if m != mode && u != nil {
			r = u.Cols
			break
		}
	}
	p, err := PrepareMttkrp(x, mode, r)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(mats)
}
