package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestMttkrpHandcrafted(t *testing.T) {
	// X(0,1,2)=2 with R=1: Ã(0,0) = 2 * B(1,0) * C(2,0).
	x := tensor.NewCOO([]tensor.Index{2, 3, 4}, 1)
	x.AppendIdx3(0, 1, 2, 2)
	b := tensor.NewMatrix(3, 1)
	b.Set(1, 0, 5)
	c := tensor.NewMatrix(4, 1)
	c.Set(2, 0, 7)
	a, err := Mttkrp(x, []*tensor.Matrix{nil, b, c}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 2 || a.Cols != 1 {
		t.Fatalf("output %dx%d", a.Rows, a.Cols)
	}
	if a.At(0, 0) != 70 {
		t.Fatalf("Ã(0,0) = %v, want 70", a.At(0, 0))
	}
	if a.At(1, 0) != 0 {
		t.Fatalf("Ã(1,0) = %v, want 0", a.At(1, 0))
	}
}

func TestMttkrpAgainstReferenceAllModes(t *testing.T) {
	for _, dims := range [][]tensor.Index{
		{25, 30, 20},
		{10, 14, 8, 12},
	} {
		x := randTensor(60, dims, 700)
		r := 8
		mats := randMats(61, x, r)
		for mode := 0; mode < len(dims); mode++ {
			p, err := PrepareMttkrp(x, mode, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.ExecuteSeq(mats)
			if err != nil {
				t.Fatal(err)
			}
			compareMatrix(t, got, refMttkrp(x, mats, mode, r), "Mttkrp seq")
		}
	}
}

func TestMttkrpParallelStrategiesAgree(t *testing.T) {
	x := randTensor(62, []tensor.Index{60, 50, 40}, 5000)
	r := DefaultR
	mats := randMats(63, x, r)
	for mode := 0; mode < 3; mode++ {
		want := refMttkrp(x, mats, mode, r)
		p, _ := PrepareMttkrp(x, mode, r)

		got, err := p.ExecuteOMP(mats, parallel.Options{Schedule: parallel.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "Mttkrp OMP-atomic")

		got, err = p.ExecuteOMP(mats, parallel.Options{Schedule: parallel.Static, Strategy: parallel.Privatized})
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "Mttkrp OMP-privatized")

		got, err = p.ExecuteGPU(testDevice(), mats)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "Mttkrp GPU")
	}
}

func TestMttkrpHiCOOMatchesReference(t *testing.T) {
	x := randTensor(64, []tensor.Index{50, 45, 55}, 3000)
	r := DefaultR
	mats := randMats(65, x, r)
	h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	for mode := 0; mode < 3; mode++ {
		want := refMttkrp(x, mats, mode, r)
		hp, err := PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hp.ExecuteSeq(mats)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp seq")

		got, err = hp.ExecuteOMP(mats, parallel.Options{Schedule: parallel.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp OMP")

		got, err = hp.ExecuteGPU(testDevice(), mats)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp GPU")
	}
}

func TestMttkrpHiCOOOrder4(t *testing.T) {
	x := randTensor(66, []tensor.Index{14, 12, 10, 16}, 800)
	r := 4
	mats := randMats(67, x, r)
	h := hicoo.FromCOO(x, 3)
	for mode := 0; mode < 4; mode++ {
		want := refMttkrp(x, mats, mode, r)
		hp, err := PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hp.ExecuteSeq(mats)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp-4d seq")
		got, err = hp.ExecuteOMP(mats, parallel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp-4d OMP")
		got, err = hp.ExecuteGPU(testDevice(), mats)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrix(t, got, want, "HiCOO-Mttkrp-4d GPU")
	}
}

func TestMttkrpSkewedTensor(t *testing.T) {
	// Heavy collisions on mode 0 stress the atomic paths.
	rng := rand.New(rand.NewSource(68))
	x := tensor.RandomCOOSkewed([]tensor.Index{100, 40, 40}, 4000, rng)
	r := 8
	mats := randMats(69, x, r)
	want := refMttkrp(x, mats, 0, r)
	p, _ := PrepareMttkrp(x, 0, r)
	got, err := p.ExecuteOMP(mats, parallel.Options{Schedule: parallel.Static})
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, want, "Mttkrp skewed OMP")
	got, err = p.ExecuteGPU(testDevice(), mats)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrix(t, got, want, "Mttkrp skewed GPU")
}

func TestMttkrpErrors(t *testing.T) {
	x := randTensor(70, []tensor.Index{5, 6, 7}, 30)
	if _, err := PrepareMttkrp(x, 3, 4); err == nil {
		t.Fatal("expected mode error")
	}
	if _, err := PrepareMttkrp(x, 0, 0); err == nil {
		t.Fatal("expected R error")
	}
	p, _ := PrepareMttkrp(x, 0, 4)
	if _, err := p.ExecuteSeq([]*tensor.Matrix{nil, nil}); err == nil {
		t.Fatal("expected matrix-count error")
	}
	mats := randMats(71, x, 4)
	mats[1] = nil
	if _, err := p.ExecuteSeq(mats); err == nil {
		t.Fatal("expected nil-matrix error")
	}
	mats = randMats(72, x, 4)
	mats[2] = tensor.NewMatrix(7, 9)
	if _, err := p.ExecuteSeq(mats); err == nil {
		t.Fatal("expected matrix-shape error")
	}
	h := hicoo.FromCOO(x, 4)
	if _, err := PrepareMttkrpHiCOO(h, 7, 4); err == nil {
		t.Fatal("expected HiCOO mode error")
	}
	if _, err := PrepareMttkrpHiCOO(h, 0, -2); err == nil {
		t.Fatal("expected HiCOO R error")
	}
}

func TestMttkrpProperty(t *testing.T) {
	f := func(seed int64, modeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []tensor.Index{
			tensor.Index(rng.Intn(20) + 1),
			tensor.Index(rng.Intn(20) + 1),
			tensor.Index(rng.Intn(20) + 1),
		}
		mode := int(modeRaw) % 3
		x := tensor.RandomCOO(dims, rng.Intn(250)+1, rng)
		r := rng.Intn(8) + 1
		mats := randMats(seed+1, x, r)
		want := refMttkrp(x, mats, mode, r)

		p, err := PrepareMttkrp(x, mode, r)
		if err != nil {
			return false
		}
		got, err := p.ExecuteSeq(mats)
		if err != nil {
			return false
		}
		h := hicoo.FromCOO(x, 5)
		hp, err := PrepareMttkrpHiCOO(h, mode, r)
		if err != nil {
			return false
		}
		hgot, err := hp.ExecuteSeq(mats)
		if err != nil {
			return false
		}
		for i := 0; i < got.Rows; i++ {
			for c := 0; c < r; c++ {
				if !closeEnough(float64(got.At(i, c)), want[i][c]) {
					return false
				}
				if !closeEnough(float64(hgot.At(i, c)), want[i][c]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMttkrpFlopCount(t *testing.T) {
	x := randTensor(73, []tensor.Index{10, 10, 10}, 100)
	p, _ := PrepareMttkrp(x, 0, 16)
	if p.FlopCount() != 3*int64(x.NNZ())*16 {
		t.Fatalf("FlopCount = %d, want %d", p.FlopCount(), 3*x.NNZ()*16)
	}
	x4 := randTensor(74, []tensor.Index{8, 8, 8, 8}, 100)
	p4, _ := PrepareMttkrp(x4, 1, 16)
	if p4.FlopCount() != 4*int64(x4.NNZ())*16 {
		t.Fatalf("order-4 FlopCount = %d", p4.FlopCount())
	}
}
