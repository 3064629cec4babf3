package csf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randTensor(seed int64, dims []tensor.Index, nnz int) *tensor.COO {
	return tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(seed)))
}

func TestFromCOORoundTrip(t *testing.T) {
	x := randTensor(1, []tensor.Index{20, 30, 25}, 600)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NNZ() != x.NNZ() {
		t.Fatalf("nnz %d, want %d", c.NNZ(), x.NNZ())
	}
	if d := tensor.AbsDiff(x, c.ToCOO()); d != 0 {
		t.Fatalf("roundtrip diff %v", d)
	}
	if c.StorageBytes() <= 0 {
		t.Fatal("storage must be positive")
	}
}

func TestFromCOOModeOrders(t *testing.T) {
	x := randTensor(2, []tensor.Index{15, 25, 10, 8}, 400)
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}}
	for _, mo := range orders {
		c, err := FromCOO(x, mo)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("order %v: %v", mo, err)
		}
		if d := tensor.AbsDiff(x, c.ToCOO()); d != 0 {
			t.Fatalf("order %v: roundtrip diff %v", mo, d)
		}
	}
}

func TestFromCOOInvalidOrders(t *testing.T) {
	x := randTensor(3, []tensor.Index{4, 4}, 6)
	for _, mo := range [][]int{{0}, {0, 0}, {0, 5}, {1, -1}} {
		if _, err := FromCOO(x, mo); err == nil {
			t.Errorf("order %v: expected error", mo)
		}
	}
}

func TestCSFCompressesVsCOO(t *testing.T) {
	// A clustered tensor shares upper-level nodes, so CSF is smaller.
	x := randTensor(4, []tensor.Index{40, 40, 4000}, 20000)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageBytes() >= x.StorageBytes() {
		t.Fatalf("CSF %d bytes >= COO %d bytes on clustered tensor", c.StorageBytes(), x.StorageBytes())
	}
}

func TestCSFRoundTripProperty(t *testing.T) {
	f := func(seed int64, orderRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		order := int(orderRaw)%3 + 2
		dims := make([]tensor.Index, order)
		for n := range dims {
			dims[n] = tensor.Index(rng.Intn(20) + 1)
		}
		x := tensor.RandomCOO(dims, rng.Intn(200)+1, rng)
		c, err := FromCOO(x, nil)
		if err != nil || c.Validate() != nil {
			return false
		}
		return tensor.AbsDiff(x, c.ToCOO()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
