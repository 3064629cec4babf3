package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hicoo"
	"repro/internal/tensor"
)

func skewed(seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandomCOOSkewed([]tensor.Index{2000, 300, 300}, 5000, rng)
}

func TestIdentityIsNoOp(t *testing.T) {
	x := skewed(1)
	p := Identity(x.Dims)
	if err := p.Validate(x.Dims); err != nil {
		t.Fatal(err)
	}
	y, err := p.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.AbsDiff(x, y) != 0 {
		t.Fatal("identity relabeling changed the tensor")
	}
}

func TestPermsAreValidPermutations(t *testing.T) {
	x := skewed(2)
	rng := rand.New(rand.NewSource(3))
	for name, p := range map[string]*Perm{
		"random":     Random(x.Dims, rng),
		"degree":     ByDegree(x),
		"firsttouch": FirstTouch(x),
	} {
		if err := p.Validate(x.Dims); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestApplyPreservesValuesAndInvertible(t *testing.T) {
	x := skewed(4)
	p := ByDegree(x)
	y, err := p.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != x.NNZ() {
		t.Fatal("relabeling changed nnz")
	}
	if err := y.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := p.Inverse().Apply(y)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.AbsDiff(x, back) != 0 {
		t.Fatal("inverse did not undo the relabeling")
	}
}

func TestByDegreePacksHeavyIndicesFirst(t *testing.T) {
	x := skewed(5)
	p := ByDegree(x)
	y, err := p.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, x.Dims[0])
	for _, i := range y.Inds[0] {
		counts[i]++
	}
	// New index 0 must be (one of) the heaviest.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0] {
			t.Fatalf("index %d heavier than index 0 after degree ordering", i)
		}
	}
}

func TestFirstTouchImprovesHiCOOBlocking(t *testing.T) {
	// Scatter the tensor with a random relabeling, then restore locality:
	// first-touch must produce (typically far) fewer HiCOO blocks than
	// the scattered version.
	x := skewed(6)
	rng := rand.New(rand.NewSource(7))
	scrambled, err := Random(x.Dims, rng).Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FirstTouch(scrambled).Apply(scrambled)
	if err != nil {
		t.Fatal(err)
	}
	nbScrambled := hicoo.FromCOO(scrambled, 7).NumBlocks()
	nbRestored := hicoo.FromCOO(restored, 7).NumBlocks()
	if nbRestored > nbScrambled {
		t.Fatalf("first-touch increased blocks: %d -> %d", nbScrambled, nbRestored)
	}
}

func TestReorderedKernelsGiveSameResults(t *testing.T) {
	// Mttkrp on the relabeled tensor with relabeled factor matrices must
	// equal the original output with relabeled output rows.
	x := skewed(8)
	r := 4
	rng := rand.New(rand.NewSource(9))
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	want, err := core.Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}

	p := FirstTouch(x)
	y, err := p.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	rmats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		// Relabel the factor rows the way the tensor was relabeled.
		rmats[n] = tensor.NewMatrix(mats[n].Rows, mats[n].Cols)
		for old := 0; old < mats[n].Rows; old++ {
			copy(rmats[n].Row(int(p.Maps[n][old])), mats[n].Row(old))
		}
	}
	got, err := core.Mttkrp(y, rmats, 0)
	if err != nil {
		t.Fatal(err)
	}
	// got(new row) must equal want(old row).
	m0 := p.Maps[0]
	for old := 0; old < want.Rows; old++ {
		newRow := got.Row(int(m0[old]))
		oldRow := want.Row(old)
		for c := range oldRow {
			d := float64(newRow[c] - oldRow[c])
			if d < 0 {
				d = -d
			}
			if d > 1e-3 {
				t.Fatalf("row %d col %d differs: %v vs %v", old, c, newRow[c], oldRow[c])
			}
		}
	}
}

func TestValidateRejectsBadMaps(t *testing.T) {
	dims := []tensor.Index{3, 3}
	bad := []*Perm{
		{Maps: [][]tensor.Index{{0, 1, 2}}},            // wrong arity
		{Maps: [][]tensor.Index{{0, 1}, {0, 1, 2}}},    // wrong length
		{Maps: [][]tensor.Index{{0, 1, 1}, {0, 1, 2}}}, // duplicate
		{Maps: [][]tensor.Index{{0, 1, 5}, {0, 1, 2}}}, // out of range
	}
	for i, p := range bad {
		if err := p.Validate(dims); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReorderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandomCOO([]tensor.Index{30, 20, 25}, 200, rng)
		p := Random(x.Dims, rng)
		y, err := p.Apply(x)
		if err != nil || y.Validate() != nil {
			return false
		}
		back, err := p.Inverse().Apply(y)
		if err != nil {
			return false
		}
		return tensor.AbsDiff(x, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
