package pasta_test

import (
	"math"
	"testing"

	pasta "repro"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the
// README shows: generate, convert, run every kernel on CPU and the
// simulated GPU, and decompose.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := pasta.GenerateSeeded(1)
	x, err := pasta.Kronecker([]pasta.Index{256, 256, 256}, 5000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}

	// Formats.
	h := pasta.ToHiCOO(x, pasta.DefaultBlockBits)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	g := pasta.ToGHiCOOExceptMode(x, 2, pasta.DefaultBlockBits)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := pasta.ToCSF(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NNZ() != x.NNZ() || g.NNZ() != x.NNZ() || c.NNZ() != x.NNZ() {
		t.Fatal("formats disagree on nnz")
	}

	dev := pasta.NewDevice("t", 0)

	// Tew.
	y := x.Clone()
	for i := range y.Vals {
		y.Vals[i] = 1
	}
	tew, err := pasta.PrepareTew(x, y, pasta.OpAdd)
	if err != nil {
		t.Fatal(err)
	}
	z1 := append([]pasta.Value(nil), tew.ExecuteSeq().Vals...)
	if _, err := tew.ExecuteOMP(pasta.Dynamic()); err != nil {
		t.Fatal(err)
	}
	z2 := append([]pasta.Value(nil), tew.Out.Vals...)
	tew.ExecuteGPU(dev)
	for i := range z1 {
		if z1[i] != z2[i] || z1[i] != tew.Out.Vals[i] {
			t.Fatal("Tew implementations disagree")
		}
	}

	// Ttv in each mode, COO vs HiCOO.
	for mode := 0; mode < 3; mode++ {
		v := pasta.RandomVector(int(x.Dim(mode)), rng)
		pc, err := pasta.PrepareTtv(x, mode)
		if err != nil {
			t.Fatal(err)
		}
		yc, err := pc.ExecuteOMP(v, pasta.Guided())
		if err != nil {
			t.Fatal(err)
		}
		ph, err := pasta.PrepareTtvHiCOO(x, mode, pasta.DefaultBlockBits)
		if err != nil {
			t.Fatal(err)
		}
		yh, err := ph.ExecuteSeq(v)
		if err != nil {
			t.Fatal(err)
		}
		a := yc.ToMap()
		b := yh.ToCOO().ToMap()
		if len(a) != len(b) {
			t.Fatalf("mode %d: Ttv nnz differ: COO %d, HiCOO %d", mode, len(a), len(b))
		}
		for k, av := range a {
			if math.Abs(float64(av-b[k])) > 1e-3 {
				t.Fatalf("mode %d: Ttv values differ at %q", mode, k)
			}
		}
	}

	// Mttkrp: COO atomic vs HiCOO blocks vs GPU.
	mats := make([]*pasta.Matrix, 3)
	for n := range mats {
		mats[n] = pasta.NewMatrix(int(x.Dim(n)), 8)
		mats[n].Randomize(rng)
	}
	mk, err := pasta.PrepareMttkrp(x, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mk.ExecuteSeq(mats)
	if err != nil {
		t.Fatal(err)
	}
	refCopy := append([]pasta.Value(nil), ref.Data...)
	mkh, err := pasta.PrepareMttkrpHiCOO(h, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	hOut, err := mkh.ExecuteOMP(mats, pasta.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	gOut, err := mk.ExecuteGPU(dev, mats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refCopy {
		if math.Abs(float64(refCopy[i]-hOut.Data[i])) > 1e-2 {
			t.Fatal("HiCOO Mttkrp diverges")
		}
		if math.Abs(float64(refCopy[i]-gOut.Data[i])) > 1e-2 {
			t.Fatal("GPU Mttkrp diverges")
		}
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(pasta.RealTensors()) != 15 || len(pasta.SyntheticTensors()) != 15 {
		t.Fatal("dataset registries wrong size")
	}
	e, err := pasta.DatasetByID("irrS")
	if err != nil {
		t.Fatal(err)
	}
	x, err := pasta.Materialize(e, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 3 {
		t.Fatal("materialized wrong order")
	}
}

func TestFacadePlatformsAndRoofline(t *testing.T) {
	if len(pasta.Platforms()) != 4 {
		t.Fatal("want 4 platforms")
	}
	p, err := pasta.PlatformByName("DGX-1V")
	if err != nil {
		t.Fatal(err)
	}
	if got := pasta.RooflineAttainable(p, 0.125); math.Abs(got-0.125*p.ERTDRAMGBs) > 1e-9 {
		t.Fatalf("roofline = %v", got)
	}
	cfg := pasta.DefaultBenchConfig()
	if cfg.R != pasta.DefaultR {
		t.Fatal("config R mismatch")
	}
	rng := pasta.GenerateSeeded(9)
	x := pasta.RandomCOO([]pasta.Index{40, 40, 40}, 2000, rng)
	r := pasta.ModelKernel(p, x, 0 /* Tew */, 0 /* COO */, cfg)
	if r.GFLOPS <= 0 {
		t.Fatal("model returned nothing")
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	rng := pasta.GenerateSeeded(11)
	x := pasta.RandomCOO([]pasta.Index{20, 20, 20}, 400, rng)
	res, err := pasta.CPALS(x, 4, 10, 1e-5, 1, pasta.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit <= 0 {
		t.Fatal("CPALS made no progress")
	}
	r1, err := pasta.PowerMethod(x, 20, 1e-6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Lambda <= 0 {
		t.Fatal("power method degenerate")
	}
	mats := []*pasta.Matrix{pasta.NewMatrix(20, 2), pasta.NewMatrix(20, 2), pasta.NewMatrix(20, 2)}
	for _, m := range mats {
		m.Randomize(rng)
	}
	core, err := pasta.TTMChain(x, mats)
	if err != nil {
		t.Fatal(err)
	}
	if core.NumEl() != 8 {
		t.Fatalf("core size %d, want 8", core.NumEl())
	}
}

func TestFacadeThreadsControl(t *testing.T) {
	pasta.SetNumThreads(2)
	defer pasta.SetNumThreads(0)
	rng := pasta.GenerateSeeded(12)
	x := pasta.RandomCOO([]pasta.Index{30, 30, 30}, 900, rng)
	p, err := pasta.PrepareTs(x, 2, pasta.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExecuteOMP(pasta.Static())
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Vals {
		if out.Vals[i] != 2*x.Vals[i] {
			t.Fatal("Ts wrong under restricted threads")
		}
	}
}
