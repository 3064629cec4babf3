// Package reorder implements sparse tensor index relabelings. The paper
// notes (§3.2.1) that the irregular vector/matrix gathers of Ttv, Ttm,
// and Mttkrp speed up when index accesses "gain a good localized pattern
// ... from reordering techniques", citing Lexi-Order (Li et al., ICS'19).
// This package provides three relabelings and the machinery to apply and
// invert them:
//
//   - Random: a destructive baseline that scatters any natural locality;
//   - ByDegree: heavy indices first, clustering the hot rows that
//     power-law tensors hammer;
//   - FirstTouch: relabel indices of each mode in first-appearance order
//     of a fiber-sorted sweep, the relabeling analog of the sort-based
//     locality restoration used by ParTI.
package reorder

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// Perm is a per-mode index relabeling: Maps[n][old] = new.
type Perm struct {
	Maps [][]tensor.Index
}

// Identity returns the identity relabeling for the given mode sizes.
func Identity(dims []tensor.Index) *Perm {
	p := &Perm{Maps: make([][]tensor.Index, len(dims))}
	for n, d := range dims {
		m := make([]tensor.Index, d)
		for i := range m {
			m[i] = tensor.Index(i)
		}
		p.Maps[n] = m
	}
	return p
}

// Random returns an independent uniform relabeling per mode.
func Random(dims []tensor.Index, rng *rand.Rand) *Perm {
	p := Identity(dims)
	for n := range p.Maps {
		m := p.Maps[n]
		rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
	}
	return p
}

// ByDegree relabels each mode's indices by decreasing non-zero count
// (ties by original index), packing the hot indices of skewed tensors
// into a dense prefix — the simplest locality-improving ordering.
func ByDegree(t *tensor.COO) *Perm {
	p := &Perm{Maps: make([][]tensor.Index, t.Order())}
	for n := 0; n < t.Order(); n++ {
		d := int(t.Dims[n])
		counts := make([]int64, d)
		for _, i := range t.Inds[n] {
			counts[i]++
		}
		order := make([]int32, d)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := counts[order[a]], counts[order[b]]
			if ca != cb {
				return ca > cb
			}
			return order[a] < order[b]
		})
		m := make([]tensor.Index, d)
		for newIdx, oldIdx := range order {
			m[oldIdx] = tensor.Index(newIdx)
		}
		p.Maps[n] = m
	}
	return p
}

// FirstTouch relabels each mode's indices in the order they are first
// encountered when sweeping the non-zeros sorted with that mode last
// (fiber order): indices that co-occur in nearby fibers receive nearby
// labels, which localizes the gathers of Ttv/Ttm/Mttkrp.
func FirstTouch(t *tensor.COO) *Perm {
	p := &Perm{Maps: make([][]tensor.Index, t.Order())}
	work := t.Clone()
	for n := 0; n < t.Order(); n++ {
		work.SortForMode(n)
		d := int(t.Dims[n])
		m := make([]tensor.Index, d)
		seen := make([]bool, d)
		next := tensor.Index(0)
		for _, i := range work.Inds[n] {
			if !seen[i] {
				seen[i] = true
				m[i] = next
				next++
			}
		}
		// Unused indices keep stable labels after all used ones.
		for i := 0; i < d; i++ {
			if !seen[i] {
				m[i] = next
				next++
			}
		}
		p.Maps[n] = m
	}
	return p
}

// Validate checks that every per-mode map is a permutation.
func (p *Perm) Validate(dims []tensor.Index) error {
	if len(p.Maps) != len(dims) {
		return fmt.Errorf("reorder: %d maps for order-%d tensor", len(p.Maps), len(dims))
	}
	for n, m := range p.Maps {
		if len(m) != int(dims[n]) {
			return fmt.Errorf("reorder: mode %d map has %d entries, want %d", n, len(m), dims[n])
		}
		seen := make([]bool, len(m))
		for _, v := range m {
			if int(v) >= len(m) || seen[v] {
				return fmt.Errorf("reorder: mode %d map is not a permutation", n)
			}
			seen[v] = true
		}
	}
	return nil
}

// Apply returns a new tensor with every coordinate relabeled. Values and
// the non-zero multiset are unchanged; the result is left unsorted.
func (p *Perm) Apply(t *tensor.COO) (*tensor.COO, error) {
	if err := p.Validate(t.Dims); err != nil {
		return nil, err
	}
	out := t.Clone()
	for n := range out.Inds {
		m := p.Maps[n]
		ind := out.Inds[n]
		for x := range ind {
			ind[x] = m[ind[x]]
		}
	}
	// Relabeling invalidates any recorded ordering.
	out.SortNatural()
	return out, nil
}

// Inverse returns the relabeling that undoes p.
func (p *Perm) Inverse() *Perm {
	inv := &Perm{Maps: make([][]tensor.Index, len(p.Maps))}
	for n, m := range p.Maps {
		im := make([]tensor.Index, len(m))
		for old, newIdx := range m {
			im[newIdx] = tensor.Index(old)
		}
		inv.Maps[n] = im
	}
	return inv
}
