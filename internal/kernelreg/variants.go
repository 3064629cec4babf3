package kernelreg

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fcoo"
	"repro/internal/obs"
	"repro/internal/roofline"
)

// tsScalar is the Ts multiplicand: near-1 so repeated timed executions
// cannot drift the output magnitude.
const tsScalar = 1.000001

// tableModel is the default Roofline hook: the Table 1 work and traffic
// formulas for the variant's kernel and format.
func tableModel(k roofline.Kernel, f roofline.Format) func(roofline.Params) (int64, int64) {
	return func(p roofline.Params) (int64, int64) {
		return roofline.Work(k, p), roofline.Bytes(k, f, p)
	}
}

// handOverride pins one hand-tuned implementation to a grid cell; cells
// with no override are filled by the generic level-iterator kernels
// (see grid.go).
type handOverride struct {
	caps Caps
	prep func(wb *Workbench, mode int, b Backend) (*Instance, error)
}

// handTuned is the override table the grid generator consults: the
// suite's tuned COO/HiCOO paths on both backends, the multi-device
// partitioned reductions, and F-COO's segmented GPU kernels. The CSF
// and blocked-CSF cells have no override; the generic level-iterator
// bodies fill them. The agreement tests pin the generics against these.
func handTuned() map[regKey]handOverride {
	hand := make(map[regKey]handOverride)
	add := func(k roofline.Kernel, f roofline.Format, b Backend, caps Caps,
		prep func(wb *Workbench, mode int, b Backend) (*Instance, error)) {
		hand[regKey{k, f, b}] = handOverride{caps, prep}
	}
	for _, b := range []Backend{OMP, GPU} {
		strat := b == OMP // only the OMP reduction paths resolve a strategy
		add(roofline.Tew, roofline.COO, b, Caps{}, prepTewCOO)
		add(roofline.Tew, roofline.HiCOO, b, Caps{}, prepTewHiCOO)
		add(roofline.Ts, roofline.COO, b, Caps{}, prepTsCOO)
		add(roofline.Ts, roofline.HiCOO, b, Caps{}, prepTsHiCOO)
		add(roofline.Ttv, roofline.COO, b,
			Caps{ModeDependent: true, StrategyAware: strat}, prepTtvCOO)
		add(roofline.Ttv, roofline.HiCOO, b,
			Caps{ModeDependent: true, StrategyAware: strat}, prepTtvHiCOO)
		add(roofline.Ttm, roofline.COO, b,
			Caps{ModeDependent: true, NeedsFactors: true, StrategyAware: strat}, prepTtmCOO)
		add(roofline.Ttm, roofline.HiCOO, b,
			Caps{ModeDependent: true, NeedsFactors: true, StrategyAware: strat}, prepTtmHiCOO)
		add(roofline.Mttkrp, roofline.COO, b,
			Caps{ModeDependent: true, NeedsFactors: true, StrategyAware: strat}, prepMttkrpCOO)
		add(roofline.Mttkrp, roofline.HiCOO, b,
			Caps{ModeDependent: true, NeedsFactors: true, StrategyAware: strat}, prepMttkrpHiCOO)
	}
	// Multi-device partitioned paths exist for the reduction kernels that
	// have them in core.
	add(roofline.Ttv, roofline.COO, MultiGPU,
		Caps{ModeDependent: true}, prepTtvCOO)
	add(roofline.Mttkrp, roofline.COO, MultiGPU,
		Caps{ModeDependent: true, NeedsFactors: true}, prepMttkrpCOO)
	// F-COO: segmented-reduction GPU kernels only.
	add(roofline.Ttv, roofline.FCOO, GPU,
		Caps{ModeDependent: true, SerialRef: true}, prepTtvFCOO)
	add(roofline.Mttkrp, roofline.FCOO, GPU,
		Caps{ModeDependent: true, NeedsFactors: true, SerialRef: true}, prepMttkrpFCOO)
	return hand
}

// otherModesOf lists every mode but `mode` in natural order.
func otherModesOf(order, mode int) []int {
	out := make([]int, 0, order-1)
	for n := 0; n < order; n++ {
		if n != mode {
			out = append(out, n)
		}
	}
	return out
}

func badBackend(what string, b Backend) error {
	return fmt.Errorf("kernelreg: %s has no %s path", what, b)
}

func prepTewCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTew(wb.X, wb.Y(), core.Add)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { p.ExecuteSeq(); return nil }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(wb.Opt(ctx)); return err }
	case GPU:
		inst.Run = wb.onDevice(func() error { p.ExecuteGPU(wb.Device()); return nil })
	default:
		return nil, badBackend("Tew/COO", b)
	}
	return inst, nil
}

func prepTewHiCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTewHiCOO(wb.HX(), wb.HY(), core.Add)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { p.ExecuteSeq(); return nil }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(wb.Opt(ctx)); return err }
	case GPU:
		inst.Run = wb.onDevice(func() error { p.ExecuteGPU(wb.Device()); return nil })
	default:
		return nil, badBackend("Tew/HiCOO", b)
	}
	return inst, nil
}

func prepTsCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTs(wb.X, tsScalar, core.Mul)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { p.ExecuteSeq(); return nil }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(wb.Opt(ctx)); return err }
	case GPU:
		inst.Run = wb.onDevice(func() error { p.ExecuteGPU(wb.Device()); return nil })
	default:
		return nil, badBackend("Ts/COO", b)
	}
	return inst, nil
}

func prepTsHiCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTsHiCOO(wb.HX(), tsScalar, core.Mul)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { p.ExecuteSeq(); return nil }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(wb.Opt(ctx)); return err }
	case GPU:
		inst.Run = wb.onDevice(func() error { p.ExecuteGPU(wb.Device()); return nil })
	default:
		return nil, badBackend("Ts/HiCOO", b)
	}
	return inst, nil
}

func prepTtvCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtv(wb.X, mode)
	if err != nil {
		return nil, err
	}
	v := wb.Vec(mode)
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(v); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(v, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), v); return err })
	case MultiGPU:
		inst.Run = wb.onDevices(func() error { _, err := p.ExecuteMultiGPU(wb.Devices(), v); return err })
	}
	return inst, nil
}

func prepTtvHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtvHiCOO(wb.X, mode, wb.BlockBits())
	if err != nil {
		return nil, err
	}
	v := wb.Vec(mode)
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(v); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(v, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), v); return err })
	default:
		return nil, badBackend("Ttv/HiCOO", b)
	}
	return inst, nil
}

func prepTtmCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtm(wb.X, mode, wb.R())
	if err != nil {
		return nil, err
	}
	u := wb.TtmMat(mode)
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(u); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(u, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), u); return err })
	default:
		return nil, badBackend("Ttm/COO", b)
	}
	return inst, nil
}

func prepTtmHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtmHiCOO(wb.X, mode, wb.R(), wb.BlockBits())
	if err != nil {
		return nil, err
	}
	u := wb.TtmMat(mode)
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(u); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(u, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), u); return err })
	default:
		return nil, badBackend("Ttm/HiCOO", b)
	}
	return inst, nil
}

func prepMttkrpCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareMttkrp(wb.X, mode, wb.R())
	if err != nil {
		return nil, err
	}
	mats := wb.Mats()
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(mats); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(mats, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), mats); return err })
	case MultiGPU:
		inst.Run = wb.onDevices(func() error { _, err := p.ExecuteMultiGPU(wb.Devices(), mats); return err })
	}
	return inst, nil
}

func prepMttkrpHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareMttkrpHiCOO(wb.HX(), mode, wb.R())
	if err != nil {
		return nil, err
	}
	mats := wb.Mats()
	inst := &Instance{Flops: p.FlopCount()}
	inst.out = func() any { return p.Out }
	inst.Check = func() error { return checkFinite(p.Out) }
	inst.Serial = func(context.Context) error { _, err := p.ExecuteSeq(mats); return err }
	switch b {
	case OMP:
		inst.Run = func(ctx context.Context) error { _, err := p.ExecuteOMP(mats, wb.Opt(ctx)); return err }
		inst.Strategy = func() string { return p.LastStrategy.String() }
	case GPU:
		inst.Run = wb.onDevice(func() error { _, err := p.ExecuteGPU(wb.Device(), mats); return err })
	default:
		return nil, badBackend("Mttkrp/HiCOO", b)
	}
	return inst, nil
}

// prepTtvFCOO runs F-COO's segmented-reduction Ttv on the simulated GPU.
// The serial rung is the COO reference.
func prepTtvFCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	if b != GPU {
		return nil, badBackend("Ttv/fCOO", b)
	}
	csp := obs.Begin("fcoo.FromCOO", "Ttv", obs.PhaseConvert, -1)
	fc, err := fcoo.FromCOO(wb.X, mode, wb.SegSize())
	csp.End()
	if err != nil {
		return nil, err
	}
	ref, err := core.PrepareTtv(wb.X, mode)
	if err != nil {
		return nil, err
	}
	v := wb.Vec(mode)
	var cur any
	inst := &Instance{Flops: 2 * int64(wb.X.NNZ())}
	inst.out = func() any { return cur }
	inst.Check = func() error { return checkFinite(cur) }
	inst.Run = wb.onDevice(func() error {
		out, err := fc.TtvGPU(wb.Device(), v)
		if err == nil {
			cur = out
		}
		return err
	})
	inst.Serial = func(context.Context) error {
		_, err := ref.ExecuteSeq(v)
		if err == nil {
			cur = ref.Out
		}
		return err
	}
	return inst, nil
}

// prepMttkrpFCOO runs F-COO's segmented Mttkrp on the simulated GPU.
// The serial rung is the COO reference.
func prepMttkrpFCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	if b != GPU {
		return nil, badBackend("Mttkrp/fCOO", b)
	}
	csp := obs.Begin("fcoo.FromCOOMttkrp", "Mttkrp", obs.PhaseConvert, -1)
	fc, err := fcoo.FromCOOMttkrp(wb.X, mode, wb.SegSize())
	csp.End()
	if err != nil {
		return nil, err
	}
	ref, err := core.PrepareMttkrp(wb.X, mode, wb.R())
	if err != nil {
		return nil, err
	}
	mats := wb.Mats()
	var cur any
	inst := &Instance{Flops: int64(wb.X.Order()) * int64(wb.X.NNZ()) * int64(wb.R())}
	inst.out = func() any { return cur }
	inst.Check = func() error { return checkFinite(cur) }
	inst.Run = wb.onDevice(func() error {
		out, err := fc.MttkrpGPU(wb.Device(), mats, wb.R())
		if err == nil {
			cur = out
		}
		return err
	})
	inst.Serial = func(context.Context) error {
		_, err := ref.ExecuteSeq(mats)
		if err == nil {
			cur = ref.Out
		}
		return err
	}
	return inst, nil
}
