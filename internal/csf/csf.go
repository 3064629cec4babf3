// Package csf implements the Compressed Sparse Fiber format of SPLATT
// (Smith et al., IPDPS'15), which the paper's §7 lists as the next format
// to add to the suite. CSF stores a sparse tensor as a forest: one tree
// level per mode (in a configurable mode order), with fiber pointers
// between levels. The package holds the tree and its builder; the
// kernels run on it through internal/levels, whose FromCSF wraps a tree
// as a hierarchy of compressed levels without copying.
package csf

import (
	"fmt"

	"repro/internal/tensor"
)

// CSF is a compressed-sparse-fiber tensor.
type CSF struct {
	// Dims holds the size of each mode (tensor-mode numbering).
	Dims []tensor.Index
	// ModeOrder maps tree level → tensor mode (level 0 is the root).
	ModeOrder []int
	// FIds[l] holds the mode index of every node at level l; FIds[N-1]
	// parallels Vals.
	FIds [][]tensor.Index
	// FPtr[l] holds, for each node at level l, the range of its children
	// at level l+1 (len = numNodes(l)+1); there are N-1 pointer arrays.
	FPtr [][]int64
	// Vals holds the non-zero values at the leaves.
	Vals []tensor.Value
}

// Order returns the number of modes.
func (c *CSF) Order() int { return len(c.Dims) }

// NNZ returns the number of stored non-zeros.
func (c *CSF) NNZ() int { return len(c.Vals) }

// NumNodes returns the node count at a level.
func (c *CSF) NumNodes(level int) int { return len(c.FIds[level]) }

// StorageBytes returns the CSF footprint: 64-bit fiber pointers, 32-bit
// node indices, 32-bit values.
func (c *CSF) StorageBytes() int64 {
	var b int64
	for _, p := range c.FPtr {
		b += 8 * int64(len(p))
	}
	for _, f := range c.FIds {
		b += 4 * int64(len(f))
	}
	return b + 4*int64(len(c.Vals))
}

// FromCOO builds a CSF tensor with the given level→mode order (defaults
// to natural order when nil). The input is not modified.
func FromCOO(t *tensor.COO, modeOrder []int) (*CSF, error) {
	order := t.Order()
	if modeOrder == nil {
		modeOrder = make([]int, order)
		for i := range modeOrder {
			modeOrder[i] = i
		}
	}
	if len(modeOrder) != order {
		return nil, fmt.Errorf("csf: mode order length %d, want %d", len(modeOrder), order)
	}
	seen := make([]bool, order)
	for _, m := range modeOrder {
		if m < 0 || m >= order || seen[m] {
			return nil, fmt.Errorf("csf: invalid mode order %v", modeOrder)
		}
		seen[m] = true
	}
	xs := t
	if !xs.IsSortedBy(modeOrder) {
		xs = t.Clone()
		xs.Sort(modeOrder)
	}
	m := xs.NNZ()
	c := &CSF{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		ModeOrder: append([]int(nil), modeOrder...),
		FIds:      make([][]tensor.Index, order),
		FPtr:      make([][]int64, order-1),
		Vals:      append([]tensor.Value(nil), xs.Vals...),
	}
	// Leaf level: every non-zero is a node.
	leaf := order - 1
	c.FIds[leaf] = append([]tensor.Index(nil), xs.Inds[modeOrder[leaf]]...)

	// Build upper levels bottom-up: a node at level l is a maximal run of
	// non-zeros agreeing on modes modeOrder[0..l].
	for l := leaf - 1; l >= 0; l-- {
		var fids []tensor.Index
		var fptr []int64
		for x := 0; x < m; x++ {
			if x == 0 || !sameUpTo(xs, modeOrder, l, x-1, x) {
				fids = append(fids, xs.Inds[modeOrder[l]][x])
				fptr = append(fptr, int64(x))
			}
		}
		fptr = append(fptr, int64(m))
		// fptr currently indexes non-zeros; convert to child-node indexes
		// by mapping positions through the child level's own starts.
		if l == leaf-1 {
			c.FPtr[l] = fptr
		} else {
			childStarts := c.nodeStarts(xs, modeOrder, l+1)
			conv := make([]int64, len(fptr))
			for i, p := range fptr {
				conv[i] = int64(searchInt64(childStarts, p))
			}
			c.FPtr[l] = conv
		}
		c.FIds[l] = fids
	}
	return c, nil
}

// nodeStarts recomputes the first-non-zero offset of every node at a
// level (used to convert non-zero offsets into child node numbers).
func (c *CSF) nodeStarts(xs *tensor.COO, modeOrder []int, level int) []int64 {
	var starts []int64
	m := xs.NNZ()
	for x := 0; x < m; x++ {
		if x == 0 || !sameUpTo(xs, modeOrder, level, x-1, x) {
			starts = append(starts, int64(x))
		}
	}
	return starts
}

func sameUpTo(xs *tensor.COO, modeOrder []int, level, a, b int) bool {
	for l := 0; l <= level; l++ {
		n := modeOrder[l]
		if xs.Inds[n][a] != xs.Inds[n][b] {
			return false
		}
	}
	return true
}

func searchInt64(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ToCOO expands the CSF tensor back to coordinate format.
func (c *CSF) ToCOO() *tensor.COO {
	out := tensor.NewCOO(c.Dims, c.NNZ())
	idx := make([]tensor.Index, c.Order())
	c.walk(0, 0, c.NumNodes(0), idx, &walkState{out: out})
	return out
}

type walkState struct{ out *tensor.COO }

// walk traverses nodes [lo, hi) at the given level depth-first.
func (c *CSF) walk(level int, lo, hi int, idx []tensor.Index, st *walkState) {
	leaf := c.Order() - 1
	for node := lo; node < hi; node++ {
		idx[c.ModeOrder[level]] = c.FIds[level][node]
		if level == leaf {
			st.out.Append(idx, c.Vals[node])
			continue
		}
		c.walk(level+1, int(c.FPtr[level][node]), int(c.FPtr[level][node+1]), idx, st)
	}
}

// Validate checks structural invariants.
func (c *CSF) Validate() error {
	order := c.Order()
	if len(c.FIds) != order || len(c.FPtr) != order-1 {
		return fmt.Errorf("csf: level arrays malformed")
	}
	for l := 0; l < order-1; l++ {
		if len(c.FPtr[l]) != len(c.FIds[l])+1 {
			return fmt.Errorf("csf: level %d has %d pointers for %d nodes", l, len(c.FPtr[l]), len(c.FIds[l]))
		}
		if c.FPtr[l][0] != 0 || c.FPtr[l][len(c.FPtr[l])-1] != int64(len(c.FIds[l+1])) {
			return fmt.Errorf("csf: level %d pointers do not span children", l)
		}
		for i := 0; i+1 < len(c.FPtr[l]); i++ {
			if c.FPtr[l][i+1] <= c.FPtr[l][i] {
				return fmt.Errorf("csf: level %d node %d has no children", l, i)
			}
		}
	}
	if len(c.FIds[order-1]) != len(c.Vals) {
		return fmt.Errorf("csf: leaf count %d != value count %d", len(c.FIds[order-1]), len(c.Vals))
	}
	for l := 0; l < order; l++ {
		d := c.Dims[c.ModeOrder[l]]
		for _, i := range c.FIds[l] {
			if i >= d {
				return fmt.Errorf("csf: level %d index %d out of range", l, i)
			}
		}
	}
	return nil
}

func (c *CSF) String() string {
	return fmt.Sprintf("CSF(order=%d dims=%v nnz=%d modeOrder=%v)", c.Order(), c.Dims, c.NNZ(), c.ModeOrder)
}
