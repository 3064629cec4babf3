package kernelreg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// agreementTol covers float32 reduction-order noise at these sizes.
const agreementTol = 2e-3

// TestCrossFormatAgreement is the registry-driven replacement for the
// suite's ad-hoc per-kernel agreement checks: every registered variant,
// on every mode, must match the serial COO reference on three
// structurally extreme shapes — dense-ish (heavy fibers, collisions),
// hypersparse (mostly singleton fibers), and a degenerate extent-1 mode
// (empty/one-wide index space in the middle of the tensor).
func TestCrossFormatAgreement(t *testing.T) {
	shapes := []struct {
		name string
		dims []tensor.Index
		nnz  int
	}{
		{"dense-ish", []tensor.Index{24, 20, 16}, 4000},
		{"hypersparse", []tensor.Index{3000, 2500, 2000}, 600},
		{"degenerate-1mode", []tensor.Index{50, 1, 60}, 800},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			x := tensor.RandomCOO(sh.dims, sh.nnz, rand.New(rand.NewSource(42)))
			wb := NewWorkbench(x, DefaultConfig())
			ctx := context.Background()
			for _, v := range All() {
				for mode := 0; mode < v.Modes(x); mode++ {
					dev, err := v.Verify(ctx, wb, mode)
					if err != nil {
						t.Errorf("%s mode %d: %v", v, mode, err)
						continue
					}
					if dev > agreementTol {
						t.Errorf("%s mode %d: max rel dev %.2e > %.0e", v, mode, dev, agreementTol)
					}
				}
			}
		})
	}
}

// TestSerialRungAgreement drives every variant's fallback rung the same
// way: the serial path the degradation ladder lands on must itself match
// the reference.
func TestSerialRungAgreement(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{18, 14, 22}, 1200, rand.New(rand.NewSource(9)))
	wb := NewWorkbench(x, DefaultConfig())
	ctx := context.Background()
	for _, v := range All() {
		ref, err := wb.Reference(ctx, v.Kernel, 0)
		if err != nil {
			t.Fatalf("%s reference: %v", v, err)
		}
		inst, err := v.Prepare(wb, 0)
		if err != nil {
			t.Fatalf("%s Prepare: %v", v, err)
		}
		if err := inst.Serial(ctx); err != nil {
			t.Errorf("%s serial rung: %v", v, err)
			continue
		}
		if err := inst.Check(); err != nil {
			t.Errorf("%s serial check: %v", v, err)
			continue
		}
		if dev := Compare(inst.Output(), ref); dev > agreementTol {
			t.Errorf("%s serial rung: max rel dev %.2e", v, dev)
		}
	}
}

// TestRunHonorsCancelledContext checks every OMP and OOC variant stops
// under an already-cancelled context: Run must return an error, not
// report success over a partial output.
func TestRunHonorsCancelledContext(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{18, 14, 22}, 1200, rand.New(rand.NewSource(9)))
	wb := NewWorkbench(x, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range All() {
		if v.Backend != OMP && v.Backend != OOC {
			continue
		}
		inst, err := v.Prepare(wb, 0)
		if err != nil {
			t.Fatalf("%s Prepare: %v", v, err)
		}
		if err := inst.Run(ctx); err == nil {
			t.Errorf("%s: Run under a cancelled context returned nil", v)
		}
	}
}
