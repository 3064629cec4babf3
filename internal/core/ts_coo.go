package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TsPlan is the prepared state of a COO tensor-scalar kernel (§2.2): the
// output keeps the input's non-zero pattern, so preprocessing only
// allocates the value array and aliases the index arrays. The suite
// implements Tsa (add) and Tsm (multiply), which the paper notes are
// sufficient to support all four operations.
type TsPlan struct {
	// X is the input tensor.
	X *tensor.COO
	// S is the scalar operand.
	S tensor.Value
	// Op is Add or Mul (Sub and Div reduce to them).
	Op Op
	// Out is the preallocated output, indices aliased to X.
	Out *tensor.COO
}

// PrepareTs validates the operation and preallocates the output. Sub and
// Div are normalized to Add/Mul with a transformed scalar, mirroring the
// paper's "Tsa and Tsm are sufficient to support them all".
func PrepareTs(x *tensor.COO, s tensor.Value, op Op) (*TsPlan, error) {
	switch op {
	case Add, Mul:
	case Sub:
		op, s = Add, -s
	case Div:
		if s == 0 {
			return nil, fmt.Errorf("core: tensor-scalar division by zero")
		}
		op, s = Mul, 1/s
	default:
		return nil, fmt.Errorf("core: unknown op %v", op)
	}
	return &TsPlan{
		X:  x,
		S:  s,
		Op: op,
		Out: &tensor.COO{
			Dims: append([]tensor.Index(nil), x.Dims...),
			Inds: x.Inds,
			Vals: make([]tensor.Value, x.NNZ()),
		},
	}, nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TsPlan) ExecuteSeq() *tensor.COO {
	p.executeRange(0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
// A cancelled or expired opt.Ctx stops it early with parallel.ErrDeadline.
func (p *TsPlan) ExecuteOMP(opt parallel.Options) (*tensor.COO, error) {
	err := parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		p.executeRange(lo, hi)
	})
	return p.Out, err
}

// ExecuteGPU runs the COO-Ts-GPU kernel: one thread per non-zero in a 1-D
// grid of 256-thread blocks (§3.2.2).
func (p *TsPlan) ExecuteGPU(dev *gpusim.Device) *tensor.COO {
	m := p.X.NNZ()
	if m == 0 {
		return p.Out
	}
	block := gpusim.Dim1(gpusim.DefaultBlockThreads)
	grid := gpusim.Grid1DFor(m, block.X)
	xv, zv, s := p.X.Vals, p.Out.Vals, p.S
	if p.Op == Add {
		dev.Launch(grid, block, func(ctx gpusim.Ctx) {
			if i := ctx.GlobalX(); i < m {
				zv[i] = xv[i] + s
			}
		})
	} else {
		dev.Launch(grid, block, func(ctx gpusim.Ctx) {
			if i := ctx.GlobalX(); i < m {
				zv[i] = xv[i] * s
			}
		})
	}
	return p.Out
}

func (p *TsPlan) executeRange(lo, hi int) {
	xv, zv, s := p.X.Vals, p.Out.Vals, p.S
	if p.Op == Add {
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] + s
		}
		return
	}
	for i := lo; i < hi; i++ {
		zv[i] = xv[i] * s
	}
}

// FlopCount returns the floating-point work of one execution (Table 1:
// M flops for Ts).
func (p *TsPlan) FlopCount() int64 { return int64(p.X.NNZ()) }

// Ts is the convenience one-shot form: prepare and execute sequentially.
func Ts(x *tensor.COO, s tensor.Value, op Op) (*tensor.COO, error) {
	p, err := PrepareTs(x, s, op)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(), nil
}
