package core

import (
	"math/rand"
	"testing"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Edge cases: empty tensors, single non-zeros, order-2 tensors, extreme
// shapes, and plan-reuse semantics across every kernel.

func emptyTensor() *tensor.COO { return tensor.NewCOO([]tensor.Index{8, 8, 8}, 0) }

func singleton() *tensor.COO {
	x := tensor.NewCOO([]tensor.Index{8, 8, 8}, 1)
	x.AppendIdx3(3, 4, 5, 2.5)
	return x
}

func TestKernelsOnEmptyTensor(t *testing.T) {
	x := emptyTensor()
	y := emptyTensor()

	tp, err := PrepareTew(x, y, Add)
	if err != nil {
		t.Fatal(err)
	}
	if out := tp.ExecuteSeq(); out.NNZ() != 0 {
		t.Fatal("Tew on empty produced non-zeros")
	}
	if _, err := tp.ExecuteOMP(parallel.Options{}); err != nil {
		t.Fatal(err)
	}
	tp.ExecuteGPU(testDevice())

	sp, err := PrepareTs(x, 2, Mul)
	if err != nil {
		t.Fatal(err)
	}
	sp.ExecuteSeq()
	sp.ExecuteGPU(testDevice())

	vp, err := PrepareTtv(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vp.NumFibers() != 0 {
		t.Fatal("empty tensor has fibers")
	}
	v := tensor.NewVector(8)
	if _, err := vp.ExecuteSeq(v); err != nil {
		t.Fatal(err)
	}
	if _, err := vp.ExecuteGPU(testDevice(), v); err != nil {
		t.Fatal(err)
	}

	mp, err := PrepareTtm(x, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := tensor.NewMatrix(8, 4)
	if _, err := mp.ExecuteSeq(u); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.ExecuteGPU(testDevice(), u); err != nil {
		t.Fatal(err)
	}

	kp, err := PrepareMttkrp(x, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	mats := []*tensor.Matrix{nil, tensor.NewMatrix(8, 4), tensor.NewMatrix(8, 4)}
	out, err := kp.ExecuteSeq(mats)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty Mttkrp produced non-zero output")
		}
	}
	if _, err := kp.ExecuteGPU(testDevice(), mats); err != nil {
		t.Fatal(err)
	}
}

func TestKernelsOnSingleton(t *testing.T) {
	x := singleton()
	v := tensor.NewVector(8)
	v[5] = 10
	y, err := Ttv(x, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != 1 {
		t.Fatalf("singleton Ttv nnz %d", y.NNZ())
	}
	if got, _ := y.At(3, 4); got != 25 {
		t.Fatalf("singleton Ttv = %v, want 25", got)
	}

	h := hicoo.FromCOO(x, 3)
	if h.NumBlocks() != 1 || h.NNZ() != 1 {
		t.Fatal("singleton HiCOO malformed")
	}
	mats := randMats(1, x, 2)
	got, err := Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := refMttkrp(x, mats, 0, 2)
	compareMatrix(t, got, want, "singleton Mttkrp")
}

func TestKernelsOrder2(t *testing.T) {
	// Order-2 tensors are sparse matrices; every kernel must handle them.
	rng := rand.New(rand.NewSource(80))
	x := tensor.RandomCOO([]tensor.Index{40, 30}, 300, rng)

	v := tensor.RandomVector(30, rng)
	y, err := Ttv(x, v, 1) // SpMV
	if err != nil {
		t.Fatal(err)
	}
	compareMaps(t, cooToF64Map(y), refTtv(x, v, 1), "order-2 Ttv")

	u := tensor.NewMatrix(30, 4)
	u.Randomize(rng)
	s, err := Ttm(x, u, 1) // SpMM
	if err != nil {
		t.Fatal(err)
	}
	compareMaps(t, semiCOOToF64Map(s), refTtm(x, u, 1), "order-2 Ttm")

	mats := randMats(81, x, 4)
	got, err := Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, refMttkrp(x, mats, 0, 4), "order-2 Mttkrp")

	hp, err := PrepareTtvHiCOO(x, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hp.ExecuteSeq(v)
	if err != nil {
		t.Fatal(err)
	}
	compareMaps(t, cooToF64Map(hy.ToCOO()), refTtv(x, v, 1), "order-2 HiCOO Ttv")
}

func TestPlanReuseAcrossExecutes(t *testing.T) {
	// A plan must be reusable: repeated executions with different operands
	// produce independent correct results (the 5-run averaging pattern).
	x := randTensor(82, []tensor.Index{25, 25, 25}, 800)
	p, err := PrepareTtv(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 3; trial++ {
		v := tensor.RandomVector(25, rng)
		got, err := p.ExecuteOMP(v, parallel.Options{Schedule: parallel.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		compareMaps(t, cooToF64Map(got), refTtv(p.X, v, 0), "plan reuse")
	}
}

func TestTewAllOpsDifferentPatternsGPUAndOMPAgree(t *testing.T) {
	x := randTensor(84, []tensor.Index{15, 15, 15}, 120)
	y := randTensor(85, []tensor.Index{15, 15, 15}, 130)
	for _, op := range []Op{Add, Sub, Mul, Div} {
		p, err := PrepareTew(x, y, op)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]tensor.Value(nil), p.ExecuteSeq().Vals...)
		if _, err := p.ExecuteOMP(parallel.Options{Schedule: parallel.Guided}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if p.Out.Vals[i] != want[i] {
				t.Fatalf("%v: OMP differs at %d", op, i)
			}
		}
		p.ExecuteGPU(testDevice())
		for i := range want {
			if p.Out.Vals[i] != want[i] {
				t.Fatalf("%v: GPU differs at %d", op, i)
			}
		}
	}
}

func TestTtvWithSizeOneProductMode(t *testing.T) {
	// Mode of size 1: every fiber has exactly one entry.
	x := tensor.NewCOO([]tensor.Index{5, 5, 1}, 3)
	x.AppendIdx3(0, 1, 0, 2)
	x.AppendIdx3(2, 3, 0, 4)
	x.AppendIdx3(4, 4, 0, 6)
	v := tensor.Vector{3}
	y, err := Ttv(x, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != 3 {
		t.Fatalf("nnz %d", y.NNZ())
	}
	if got, _ := y.At(2, 3); got != 12 {
		t.Fatalf("got %v, want 12", got)
	}
}

func TestMttkrpRIsOne(t *testing.T) {
	x := randTensor(86, []tensor.Index{10, 10, 10}, 100)
	mats := randMats(87, x, 1)
	got, err := Mttkrp(x, mats, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, refMttkrp(x, mats, 2, 1), "R=1 Mttkrp")
}

func TestHiCOOKernelsSingleBlock(t *testing.T) {
	// All non-zeros in one block exercises the degenerate parallel case.
	x := randTensor(88, []tensor.Index{16, 16, 16}, 200)
	h := hicoo.FromCOO(x, 8) // B=256 >= dims: single block
	if h.NumBlocks() != 1 {
		t.Fatalf("expected 1 block, got %d", h.NumBlocks())
	}
	mats := randMats(89, x, 4)
	hp, err := PrepareMttkrpHiCOO(h, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hp.ExecuteOMP(mats, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, refMttkrp(x, mats, 0, 4), "single-block HiCOO Mttkrp")
	got, err = hp.ExecuteGPU(testDevice(), mats)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, refMttkrp(x, mats, 0, 4), "single-block HiCOO Mttkrp GPU")
}

func TestLargeRExceedsBlockThreads(t *testing.T) {
	// R larger than the 256-thread block: ny clamps to 1 and the GPU
	// geometry still covers all columns.
	x := randTensor(90, []tensor.Index{12, 12, 12}, 150)
	r := 300
	mats := randMats(91, x, r)
	p, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ExecuteGPU(testDevice(), mats)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, refMttkrp(x, mats, 0, r), "large-R GPU Mttkrp")
}
