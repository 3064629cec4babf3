package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TewHiCOOPlan is the HiCOO element-wise kernel (§3.4.1): the value
// computation is identical to the COO kernel — only the preprocessing
// differs, allocating and index-setting the output in HiCOO format. The
// operands must share their non-zero pattern block-for-block (the case
// the paper analyzes); differing patterns are supported via the COO path.
type TewHiCOOPlan struct {
	// X and Y are the operands.
	X, Y *hicoo.HiCOO
	// Op is the element-wise operation.
	Op Op
	// Out is the preallocated output; its block structure aliases X's
	// (read-only to the kernel) with a fresh value array.
	Out *hicoo.HiCOO
}

// PrepareTewHiCOO validates that the operands are structurally identical
// HiCOO tensors and preallocates the output.
func PrepareTewHiCOO(x, y *hicoo.HiCOO, op Op) (*TewHiCOOPlan, error) {
	if err := sameHiCOOStructure(x, y); err != nil {
		return nil, err
	}
	out := &hicoo.HiCOO{
		Dims:      append([]tensor.Index(nil), x.Dims...),
		BlockBits: x.BlockBits,
		BPtr:      x.BPtr,
		BInds:     x.BInds,
		EInds:     x.EInds,
		Vals:      make([]tensor.Value, x.NNZ()),
	}
	return &TewHiCOOPlan{X: x, Y: y, Op: op, Out: out}, nil
}

// sameHiCOOStructure checks full structural equality of block and element
// indices (an O(M) preprocessing-stage check).
func sameHiCOOStructure(x, y *hicoo.HiCOO) error {
	if len(x.Dims) != len(y.Dims) || x.NNZ() != y.NNZ() || x.NumBlocks() != y.NumBlocks() || x.BlockBits != y.BlockBits {
		return fmt.Errorf("core: HiCOO Tew requires identically structured operands (use the COO path for differing patterns)")
	}
	for n := range x.Dims {
		if x.Dims[n] != y.Dims[n] {
			return tensor.ErrShapeMismatch
		}
	}
	for b := range x.BPtr {
		if x.BPtr[b] != y.BPtr[b] {
			return fmt.Errorf("core: HiCOO Tew operands have different block partitions")
		}
	}
	for n := range x.BInds {
		for b := range x.BInds[n] {
			if x.BInds[n][b] != y.BInds[n][b] {
				return fmt.Errorf("core: HiCOO Tew operands have different block indices")
			}
		}
		for e := range x.EInds[n] {
			if x.EInds[n][e] != y.EInds[n][e] {
				return fmt.Errorf("core: HiCOO Tew operands have different element indices")
			}
		}
	}
	return nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TewHiCOOPlan) ExecuteSeq() *hicoo.HiCOO {
	tewValues(p.X.Vals, p.Y.Vals, p.Out.Vals, p.Op, 0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
// A cancelled or expired opt.Ctx stops it early with parallel.ErrDeadline.
func (p *TewHiCOOPlan) ExecuteOMP(opt parallel.Options) (*hicoo.HiCOO, error) {
	err := parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		tewValues(p.X.Vals, p.Y.Vals, p.Out.Vals, p.Op, lo, hi)
	})
	return p.Out, err
}

// ExecuteGPU runs HiCOO-Tew-GPU, which the paper notes shares its
// execution code with the COO version: one thread per non-zero.
func (p *TewHiCOOPlan) ExecuteGPU(dev *gpusim.Device) *hicoo.HiCOO {
	m := p.X.NNZ()
	if m == 0 {
		return p.Out
	}
	block := gpusim.Dim1(gpusim.DefaultBlockThreads)
	grid := gpusim.Grid1DFor(m, block.X)
	xv, yv, zv := p.X.Vals, p.Y.Vals, p.Out.Vals
	op := p.Op
	dev.Launch(grid, block, func(ctx gpusim.Ctx) {
		if i := ctx.GlobalX(); i < m {
			zv[i] = op.Apply(xv[i], yv[i])
		}
	})
	return p.Out
}

// FlopCount returns the floating-point work of one execution (M flops).
func (p *TewHiCOOPlan) FlopCount() int64 { return int64(p.X.NNZ()) }

func tewValues(xv, yv, zv []tensor.Value, op Op, lo, hi int) {
	switch op {
	case Add:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] + yv[i]
		}
	case Sub:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] - yv[i]
		}
	case Mul:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] * yv[i]
		}
	case Div:
		for i := lo; i < hi; i++ {
			zv[i] = xv[i] / yv[i]
		}
	default:
		panic(fmt.Sprintf("core: unknown op %v", op))
	}
}

// TsHiCOOPlan is the HiCOO tensor-scalar kernel; like Tew, its value
// computation matches the COO version with HiCOO output preprocessing.
type TsHiCOOPlan struct {
	// X is the input tensor.
	X *hicoo.HiCOO
	// S is the (already normalized) scalar operand.
	S tensor.Value
	// Op is Add or Mul after normalization.
	Op Op
	// Out aliases X's block structure with a fresh value array.
	Out *hicoo.HiCOO
}

// PrepareTsHiCOO normalizes the operation (Sub→Add, Div→Mul) and
// preallocates the output.
func PrepareTsHiCOO(x *hicoo.HiCOO, s tensor.Value, op Op) (*TsHiCOOPlan, error) {
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
	out := &hicoo.HiCOO{
		Dims:      append([]tensor.Index(nil), x.Dims...),
		BlockBits: x.BlockBits,
		BPtr:      x.BPtr,
		BInds:     x.BInds,
		EInds:     x.EInds,
		Vals:      make([]tensor.Value, x.NNZ()),
	}
	return &TsHiCOOPlan{X: x, S: s, Op: op, Out: out}, nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TsHiCOOPlan) ExecuteSeq() *hicoo.HiCOO {
	p.executeRange(0, p.X.NNZ())
	return p.Out
}

// ExecuteOMP runs the value computation with the OpenMP-style runtime.
// A cancelled or expired opt.Ctx stops it early with parallel.ErrDeadline.
func (p *TsHiCOOPlan) ExecuteOMP(opt parallel.Options) (*hicoo.HiCOO, error) {
	err := parallel.For(p.X.NNZ(), opt, func(lo, hi, _ int) {
		p.executeRange(lo, hi)
	})
	return p.Out, err
}

// ExecuteGPU runs HiCOO-Ts-GPU: one thread per non-zero.
func (p *TsHiCOOPlan) ExecuteGPU(dev *gpusim.Device) *hicoo.HiCOO {
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

func (p *TsHiCOOPlan) executeRange(lo, hi int) {
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

// FlopCount returns the floating-point work of one execution (M flops).
func (p *TsHiCOOPlan) FlopCount() int64 { return int64(p.X.NNZ()) }
