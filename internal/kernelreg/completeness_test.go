package kernelreg

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

func lintTensor() *tensor.COO {
	return tensor.RandomCOO([]tensor.Index{8, 9, 10}, 60, rand.New(rand.NewSource(7)))
}

// TestRegistryComplete is the completeness lint: every kernel and format
// enum value must have at least one registered variant, and every
// variant must carry its model hook and prepare into a fully wired
// instance (run, serial rung, finite check, canonical output, positive
// flops). A variant that drifts back toward a bare switch — registered
// without verify machinery — fails here, not in a later benchmark run.
func TestRegistryComplete(t *testing.T) {
	for _, k := range roofline.Kernels {
		if len(FormatsFor(k)) == 0 {
			t.Errorf("kernel %s has no registered variants", k)
		}
	}
	for _, f := range roofline.Formats {
		found := false
		for _, v := range All() {
			if v.Format == f {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("format %s has no registered variants", f)
		}
	}

	x := lintTensor()
	wb := NewWorkbench(x, DefaultConfig())
	for _, v := range All() {
		if v.Model == nil {
			t.Errorf("%s lacks a model hook", v)
			continue
		}
		flops, bytes := v.Model(roofline.Params{Order: 3, M: 1000, MF: 100, Nb: 10, R: 16, BlockSize: 128})
		if flops <= 0 || bytes <= 0 {
			t.Errorf("%s model returned flops=%d bytes=%d", v, flops, bytes)
		}
		inst, err := v.Prepare(wb, 0)
		if err != nil {
			t.Errorf("%s Prepare: %v", v, err)
			continue
		}
		if inst.Run == nil || inst.Serial == nil || inst.Check == nil || inst.out == nil {
			t.Errorf("%s instance lacks verify machinery (Run/Serial/Check/Output)", v)
		}
		if inst.Flops <= 0 {
			t.Errorf("%s instance reports flops %d", v, inst.Flops)
		}
		if v.Caps.StrategyAware && inst.Strategy == nil {
			t.Errorf("%s claims StrategyAware but has no Strategy hook", v)
		}
		if !v.Caps.StrategyAware && inst.Strategy != nil {
			t.Errorf("%s has a Strategy hook but does not claim StrategyAware", v)
		}
	}
}

// TestRegistryObsLabelsStable is the observability half of the
// completeness lint: counters and spans attribute work by
// Variant.String() and trials by Label().String(), so every registered
// variant must render a non-empty label, no two variants may collide,
// and the two renderings must agree — a duplicate or empty label would
// silently merge two variants' counters into one trace lane.
func TestRegistryObsLabelsStable(t *testing.T) {
	seen := make(map[string]*Variant, len(All()))
	for _, v := range All() {
		s := v.String()
		if s == "" {
			t.Errorf("variant %+v renders an empty String()", v)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("variants %+v and %+v share the label %q", prev, v, s)
		}
		seen[s] = v
		l := v.Label().String()
		if l == "" {
			t.Errorf("%s renders an empty resilience label", s)
		}
		if l != s {
			t.Errorf("%s: Variant.String() and Label().String() disagree (%q vs %q); spans and trial outcomes would land under different keys", s, s, l)
		}
	}

	// Conversion spans attribute Prepare work by (label, operand): two
	// call sites sharing a pair would merge into one trace lane, so the
	// static site table must be duplicate-free and fully labeled.
	sites := make(map[[2]string]bool, len(convSites))
	for _, site := range convSites {
		if site[0] == "" || site[1] == "" {
			t.Errorf("conversion site %q has an empty label or operand", site)
		}
		if sites[site] {
			t.Errorf("conversion site %q listed twice", site)
		}
		sites[site] = true
		// The planner's spans take a variant label as their operand, kept
		// distinct above; a static site under a planner edge label could
		// share their lane.
		if site[0] == EdgeCSFFromCOO || site[0] == EdgeBlockRoot || strings.HasPrefix(site[0], EdgeBuild) {
			t.Errorf("conversion site %q reuses a planner edge label", site)
		}
	}
}

// TestLookupAndGrid covers the registry's query surface: exact lookups
// round-trip, misses carry the typed taxonomy error, the grid lists
// every (kernel, format) exactly once, and the host-variant preference
// picks OMP when present.
func TestLookupAndGrid(t *testing.T) {
	for _, v := range All() {
		got, err := Lookup(v.Kernel, v.Format, v.Backend)
		if err != nil || got != v {
			t.Fatalf("Lookup(%s) = %v, %v", v, got, err)
		}
	}
	_, err := Lookup(roofline.Tew, roofline.CSF, OMP)
	if !errors.Is(err, resilience.ErrUnsupported) {
		t.Fatalf("miss error = %v, want ErrUnsupported", err)
	}
	var ke *resilience.KernelError
	if !errors.As(err, &ke) || ke.Label.Kernel != "Tew" || ke.Label.Format != "CSF" {
		t.Fatalf("miss error not a labeled KernelError: %v", err)
	}

	seen := map[Pair]bool{}
	for _, pr := range Grid() {
		if seen[pr] {
			t.Fatalf("grid lists %v/%v twice", pr.Kernel, pr.Format)
		}
		seen[pr] = true
		if _, err := HostVariant(pr.Kernel, pr.Format); err != nil {
			t.Fatalf("grid pair %v/%v has no host variant: %v", pr.Kernel, pr.Format, err)
		}
	}
	if !seen[(Pair{roofline.Ttv, roofline.CSF})] || !seen[(Pair{roofline.Mttkrp, roofline.FCOO})] {
		t.Fatal("grid is missing the CSF/fCOO pairs")
	}

	hv, err := HostVariant(roofline.Mttkrp, roofline.CSF)
	if err != nil || hv.Backend != OMP {
		t.Fatalf("HostVariant(Mttkrp, CSF) = %v, %v; want OMP", hv, err)
	}
	hv, err = HostVariant(roofline.Ttv, roofline.FCOO)
	if err != nil || hv.Backend != GPU {
		t.Fatalf("HostVariant(Ttv, fCOO) = %v, %v; want GPU", hv, err)
	}
}

// TestModeDependenceMetadata pins the capability metadata harnesses
// average modes by.
func TestModeDependenceMetadata(t *testing.T) {
	want := map[roofline.Kernel]bool{
		roofline.Tew: false, roofline.Ts: false,
		roofline.Ttv: true, roofline.Ttm: true, roofline.Mttkrp: true,
	}
	for k, dep := range want {
		if ModeDependent(k) != dep {
			t.Errorf("ModeDependent(%s) = %v, want %v", k, !dep, dep)
		}
	}
	x := lintTensor()
	for _, v := range All() {
		modes := v.Modes(x)
		if v.Caps.ModeDependent && modes != x.Order() {
			t.Errorf("%s Modes = %d, want %d", v, modes, x.Order())
		}
		if !v.Caps.ModeDependent && modes != 1 {
			t.Errorf("%s Modes = %d, want 1", v, modes)
		}
	}
}

// TestWorkbenchOperandsDeterministic pins the operand seeds the
// measurement harness has always used: the Tew operand shares X's
// non-zero pattern, and repeated workbenches generate identical data.
func TestWorkbenchOperandsDeterministic(t *testing.T) {
	x := lintTensor()
	a, b := NewWorkbench(x, DefaultConfig()), NewWorkbench(x, DefaultConfig())
	ya, yb := a.Y(), b.Y()
	if ya.NNZ() != x.NNZ() {
		t.Fatalf("operand nnz %d, want %d", ya.NNZ(), x.NNZ())
	}
	for n := range ya.Inds {
		for i := range ya.Inds[n] {
			if ya.Inds[n][i] != x.Inds[n][i] {
				t.Fatal("operand does not share X's pattern")
			}
		}
	}
	for i := range ya.Vals {
		if ya.Vals[i] != yb.Vals[i] {
			t.Fatal("operand values not deterministic")
		}
	}
	if va, vb := a.Vec(1), b.Vec(1); len(va) != len(vb) || va[0] != vb[0] {
		t.Fatal("mode vectors not deterministic")
	}
	ma, mb := a.Mats(), b.Mats()
	for n := range ma {
		for i := range ma[n].Data {
			if ma[n].Data[i] != mb[n].Data[i] {
				t.Fatal("factor matrices not deterministic")
			}
		}
	}
}

// TestReferenceCached ensures the serial-COO reference is computed once
// per (kernel, mode) on a workbench.
func TestReferenceCached(t *testing.T) {
	wb := NewWorkbench(lintTensor(), DefaultConfig())
	c1, err := wb.Reference(context.Background(), roofline.Ttv, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := wb.Reference(context.Background(), roofline.Ttv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) == 0 {
		t.Fatal("empty reference")
	}
	// A cached reference shares the same underlying map.
	c1["sentinel"] = 1
	if c2["sentinel"] != 1 {
		t.Fatal("reference recomputed instead of cached")
	}
}
