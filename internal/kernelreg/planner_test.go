package kernelreg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/roofline"
	"repro/internal/tensor"
)

func plannerTensor() *tensor.COO {
	return tensor.RandomCOO([]tensor.Index{30, 25, 20}, 400, rand.New(rand.NewSource(11)))
}

// TestPlannerFixedPaths checks each level-view format takes its one
// conversion path and reports it in the plan string: CSF and blocked-CSF
// go through the cached csf.FromCOO tree (reused when resident), COO and
// HiCOO views are built directly. Each case uses a fresh workbench so
// cached trees and hierarchies cannot leak between cases.
func TestPlannerFixedPaths(t *testing.T) {
	mo := []int{0, 1, 2}
	cases := []struct {
		format  roofline.Format
		seedCSF bool // make a CSF tree resident before planning
		want    string
	}{
		{roofline.CSF, false, "via-csf:" + EdgeCSFFromCOO},
		{roofline.CSF, true, "reuse-csf"},
		{roofline.BCSF, false, "via-csf:" + EdgeCSFFromCOO + "+" + EdgeBlockRoot},
		{roofline.BCSF, true, "reuse-csf:" + EdgeBlockRoot},
		{roofline.COO, false, "direct:" + EdgeBuild + ":COO"},
		{roofline.HiCOO, false, "direct:" + EdgeBuild + ":HiCOO"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.want, func(t *testing.T) {
			wb := NewWorkbench(plannerTensor(), DefaultConfig())
			if tc.seedCSF {
				if _, err := wb.CSF(mo, "seed"); err != nil {
					t.Fatal(err)
				}
			}
			h, plan, err := wb.Hier(tc.format, mo, "test")
			if err != nil {
				t.Fatal(err)
			}
			if plan != tc.want {
				t.Fatalf("plan = %q, want %q", plan, tc.want)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("planned hierarchy invalid: %v", err)
			}
			if h.NNZ() < wb.X.NNZ() {
				t.Fatalf("planned hierarchy holds %d values, want >= %d", h.NNZ(), wb.X.NNZ())
			}
			if tc.format == roofline.CSF || tc.format == roofline.BCSF {
				// The tree formats alias the workbench's one CSF tree.
				c, err := wb.CSF(mo, "test")
				if err != nil {
					t.Fatal(err)
				}
				if &h.Vals[0] != &c.Vals[0] {
					t.Fatal("tree hierarchy does not alias the cached CSF tree")
				}
			}
			h2, plan2, err := wb.Hier(tc.format, mo, "test")
			if err != nil {
				t.Fatal(err)
			}
			if plan2 != "cached" || h2 != h {
				t.Fatalf("second request: plan %q (want cached), same hierarchy %v", plan2, h2 == h)
			}
		})
	}
}

// TestGeneratedVariantSurfacesPlan checks the plan string rides the
// Instance out of Prepare — the hook pastabench rows and pastad's /run
// response read — and that the CSF cells share one tree per mode order:
// Ttm and Ttv both put the product mode at the leaves, and bCSF splits
// the root of the tree Mttkrp/CSF built.
func TestGeneratedVariantSurfacesPlan(t *testing.T) {
	wb := NewWorkbench(plannerTensor(), DefaultConfig())
	prep := func(k roofline.Kernel, f roofline.Format, mode int) *Instance {
		t.Helper()
		v, err := Lookup(k, f, OMP)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Generated {
			t.Fatalf("%s: expected a generated variant", v)
		}
		inst, err := v.Prepare(wb, mode)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	if got := prep(roofline.Ttm, roofline.CSF, 1).Plan; got != "via-csf:"+EdgeCSFFromCOO {
		t.Fatalf("cold Ttm/CSF plan = %q, want via-csf:%s", got, EdgeCSFFromCOO)
	}
	ttv := prep(roofline.Ttv, roofline.CSF, 1)
	if ttv.Plan != "cached" {
		t.Fatalf("Ttv/CSF after Ttm/CSF plan = %q, want cached", ttv.Plan)
	}
	prep(roofline.Mttkrp, roofline.CSF, 1)
	if got := prep(roofline.Mttkrp, roofline.BCSF, 1).Plan; got != "reuse-csf:"+EdgeBlockRoot {
		t.Fatalf("Mttkrp/bCSF after Mttkrp/CSF plan = %q, want reuse-csf:%s", got, EdgeBlockRoot)
	}

	ctx := context.Background()
	if err := ttv.Run(ctx); err != nil {
		t.Fatal(err)
	}
	ref, err := wb.Reference(ctx, roofline.Ttv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev := Compare(ttv.Output(), ref); dev > agreementTol {
		t.Fatalf("cached-tree output deviates %g from reference", dev)
	}
}
