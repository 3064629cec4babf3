// Command quickstart walks through the suite's public API: build a sparse
// tensor, convert it to HiCOO, and run all five benchmark kernels (Tew,
// Ts, Ttv, Ttm, Mttkrp) in both formats on the CPU.
package main

import (
	"fmt"
	"log"

	pasta "repro"
)

func main() {
	rng := pasta.GenerateSeeded(42)

	// A 512×512×512 tensor with ~200K non-zeros from the paper's
	// stochastic Kronecker generator (power-law structure, like regS).
	dims := []pasta.Index{512, 512, 512}
	x, err := pasta.Kronecker(dims, 200_000, nil, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tensor: %v\n", x)
	fmt.Printf("COO storage: %d bytes\n", x.StorageBytes())

	h := pasta.ToHiCOO(x, pasta.DefaultBlockBits)
	st := h.ComputeStats()
	fmt.Printf("HiCOO storage: %d bytes (%.2fx vs COO, %d blocks of B=%d)\n\n",
		st.StorageBytes, st.CompressionVsCOO, st.NumBlocks, h.BlockSize())

	// ---- Tew: element-wise addition with a same-pattern operand --------
	y := x.Clone()
	for i := range y.Vals {
		y.Vals[i] = 2
	}
	tew, err := pasta.PrepareTew(x, y, pasta.OpAdd)
	if err != nil {
		log.Fatal(err)
	}
	z, err := tew.ExecuteOMP(pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Tew  add : %d non-zeros, z[0] = %.4f (x[0]+2)\n", z.NNZ(), z.Vals[0])

	// ---- Ts: tensor-scalar multiply -------------------------------------
	ts, err := pasta.PrepareTs(x, 3, pasta.OpMul)
	if err != nil {
		log.Fatal(err)
	}
	s, err := ts.ExecuteOMP(pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Ts   mul : s[0] = %.4f (3·x[0])\n", s.Vals[0])

	// ---- Ttv: tensor-times-vector in every mode -------------------------
	for mode := 0; mode < x.Order(); mode++ {
		v := pasta.RandomVector(int(x.Dim(mode)), rng)
		plan, err := pasta.PrepareTtv(x, mode)
		if err != nil {
			log.Fatal(err)
		}
		out, err := plan.ExecuteOMP(v, pasta.Dynamic())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Ttv  mode %d: output order %d with %d non-zeros (MF fibers)\n",
			mode, out.Order(), out.NNZ())
	}

	// ---- Ttm: tensor-times-matrix (R=16) --------------------------------
	u := pasta.NewMatrix(int(x.Dim(2)), pasta.DefaultR)
	u.Randomize(rng)
	ttm, err := pasta.PrepareTtm(x, 2, pasta.DefaultR)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := ttm.ExecuteOMP(u, pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Ttm  mode 2: sCOO output with %d fibers × %d dense columns\n",
		sc.NumFibers(), sc.DenseSize())

	// ---- Mttkrp (the CP-decomposition bottleneck) ------------------------
	mats := make([]*pasta.Matrix, x.Order())
	for n := range mats {
		mats[n] = pasta.NewMatrix(int(x.Dim(n)), pasta.DefaultR)
		mats[n].Randomize(rng)
	}
	mk, err := pasta.PrepareMttkrp(x, 0, pasta.DefaultR)
	if err != nil {
		log.Fatal(err)
	}
	a, err := mk.ExecuteOMP(mats, pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mttkrp mode 0: output Ã is %d×%d, Ã(0,0) = %.4f\n", a.Rows, a.Cols, a.At(0, 0))

	// ---- The same Mttkrp in HiCOO (Algorithm 2) --------------------------
	mkh, err := pasta.PrepareMttkrpHiCOO(h, 0, pasta.DefaultR)
	if err != nil {
		log.Fatal(err)
	}
	ah, err := mkh.ExecuteOMP(mats, pasta.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range a.Data {
		d := float64(a.Data[i] - ah.Data[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("HiCOO-Mttkrp agrees with COO-Mttkrp to %.2e\n", maxDiff)
}
