package core

import (
	"testing"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestTsAllOps(t *testing.T) {
	x := randTensor(20, []tensor.Index{15, 15, 15}, 400)
	cases := []struct {
		op   Op
		s    tensor.Value
		want func(v tensor.Value) tensor.Value
	}{
		{Add, 2.5, func(v tensor.Value) tensor.Value { return v + 2.5 }},
		{Sub, 1.5, func(v tensor.Value) tensor.Value { return v - 1.5 }},
		{Mul, 3, func(v tensor.Value) tensor.Value { return v * 3 }},
		{Div, 4, func(v tensor.Value) tensor.Value { return v * 0.25 }},
	}
	for _, c := range cases {
		z, err := Ts(x, c.s, c.op)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if z.NNZ() != x.NNZ() {
			t.Fatalf("%v: nnz changed", c.op)
		}
		for i := range z.Vals {
			if z.Vals[i] != c.want(x.Vals[i]) {
				t.Fatalf("%v: entry %d = %v, want %v", c.op, i, z.Vals[i], c.want(x.Vals[i]))
			}
		}
	}
}

func TestTsNormalization(t *testing.T) {
	x := randTensor(21, []tensor.Index{8, 8}, 20)
	p, err := PrepareTs(x, 2, Sub)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != Add || p.S != -2 {
		t.Fatalf("Sub not normalized: op=%v s=%v", p.Op, p.S)
	}
	p2, err := PrepareTs(x, 4, Div)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Op != Mul || p2.S != 0.25 {
		t.Fatalf("Div not normalized: op=%v s=%v", p2.Op, p2.S)
	}
}

func TestTsDivByZero(t *testing.T) {
	x := randTensor(22, []tensor.Index{4, 4}, 5)
	if _, err := PrepareTs(x, 0, Div); err == nil {
		t.Fatal("expected division-by-zero error")
	}
	hx := hicoo.FromCOO(x, 4)
	if _, err := PrepareTsHiCOO(hx, 0, Div); err == nil {
		t.Fatal("expected HiCOO division-by-zero error")
	}
}

func TestTsOMPAndGPUAgree(t *testing.T) {
	x := randTensor(23, []tensor.Index{40, 30, 20}, 3000)
	for _, op := range []Op{Add, Mul} {
		p, err := PrepareTs(x, 1.75, op)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]tensor.Value(nil), p.ExecuteSeq().Vals...)
		if _, err := p.ExecuteOMP(parallel.Options{Schedule: parallel.Static}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if p.Out.Vals[i] != want[i] {
				t.Fatalf("%v OMP entry %d differs", op, i)
			}
		}
		p.ExecuteGPU(testDevice())
		for i := range want {
			if p.Out.Vals[i] != want[i] {
				t.Fatalf("%v GPU entry %d differs", op, i)
			}
		}
	}
}

func TestTsHiCOOMatchesCOO(t *testing.T) {
	x := randTensor(24, []tensor.Index{60, 60, 60}, 2000)
	hx := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	for _, op := range []Op{Add, Sub, Mul, Div} {
		hp, err := PrepareTsHiCOO(hx, 2, op)
		if err != nil {
			t.Fatal(err)
		}
		hz := hp.ExecuteSeq()
		if err := hz.Validate(); err != nil {
			t.Fatalf("%v: invalid output: %v", op, err)
		}
		cz, err := Ts(x, 2, op)
		if err != nil {
			t.Fatal(err)
		}
		compareMaps(t, cooToF64Map(hz.ToCOO()), cooToF64Map(cz), "HiCOO-Ts "+op.String())

		want := append([]tensor.Value(nil), hz.Vals...)
		if _, err := hp.ExecuteOMP(parallel.Options{Schedule: parallel.Guided}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if hp.Out.Vals[i] != want[i] {
				t.Fatalf("%v: HiCOO OMP entry %d differs", op, i)
			}
		}
		hp.ExecuteGPU(testDevice())
		for i := range want {
			if hp.Out.Vals[i] != want[i] {
				t.Fatalf("%v: HiCOO GPU entry %d differs", op, i)
			}
		}
	}
}

func TestTsUnknownOp(t *testing.T) {
	x := randTensor(25, []tensor.Index{4, 4}, 5)
	if _, err := PrepareTs(x, 1, Op(9)); err == nil {
		t.Fatal("expected unknown-op error")
	}
}

func TestTsFlopCount(t *testing.T) {
	x := randTensor(26, []tensor.Index{10, 10}, 37)
	p, _ := PrepareTs(x, 1, Add)
	if p.FlopCount() != int64(x.NNZ()) {
		t.Fatalf("FlopCount = %d, want %d", p.FlopCount(), x.NNZ())
	}
	hx := hicoo.FromCOO(x, 4)
	hp, _ := PrepareTsHiCOO(hx, 1, Add)
	if hp.FlopCount() != int64(x.NNZ()) {
		t.Fatal("HiCOO FlopCount wrong")
	}
}

func TestTsOutputSharesPattern(t *testing.T) {
	// The output's index arrays alias the input's: the sparse pattern is
	// unchanged by construction (sparse-dense property trivial case).
	x := randTensor(27, []tensor.Index{12, 12}, 30)
	p, _ := PrepareTs(x, 5, Mul)
	z := p.ExecuteSeq()
	for n := range x.Inds {
		if &z.Inds[n][0] != &x.Inds[n][0] {
			t.Fatal("expected aliased index arrays")
		}
	}
}
