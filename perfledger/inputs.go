package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last repetition's state is the one measured.
const setupReps = 3

// input is one generated tensor file.
type input struct {
	name  string
	path  string
	bytes int64
}

// writeInputs generates the named Table 2/3 stand-ins at about nnz
// non-zeros from seed and writes each as a .bten file into dir. It
// generates with PASTA_TENSOR_DIR unset, so dataset.Materialize never
// substitutes a file it finds there (such as the serve-mix inputs, or a
// directory the caller's environment names) for the stand-in.
func writeInputs(dir string, names []string, nnz int, seed int64) ([]input, error) {
	if old, ok := os.LookupEnv(dataset.TensorDirEnv); ok {
		if err := os.Unsetenv(dataset.TensorDirEnv); err != nil {
			return nil, err
		}
		defer os.Setenv(dataset.TensorDirEnv, old)
	}
	ins := make([]input, 0, len(names))
	for i, name := range names {
		e, err := dataset.ByID(name)
		if err != nil {
			return nil, err
		}
		x, err := dataset.Materialize(e, nnz, seed*100+int64(i))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		path := filepath.Join(dir, name+".bten")
		if err := tensor.WriteFile(path, x); err != nil {
			return nil, fmt.Errorf("write %s: %w", name, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{name: name, path: path, bytes: fi.Size()})
	}
	return ins, nil
}

// repeatSetup runs setup setupReps times and returns the median wall
// time in seconds. Between two set-ups, teardown (when not nil) releases
// the previous one, and its memory is collected, outside the timing.
func repeatSetup(setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// cell is one (variant, mode) a pass prepares or a sweep runs.
type cell struct {
	v    *kernelreg.Variant
	mode int
}

// key names the cell's (kernel, format) in metric names, with the
// backend appended for the streaming cells: "Mttkrp.COO",
// "Ttv.COO-ooc".
func (c cell) key() string {
	if c.v.Backend == kernelreg.OOC {
		return fmt.Sprintf("%s.%s-ooc", c.v.Kernel, c.v.Format)
	}
	return fmt.Sprintf("%s.%s", c.v.Kernel, c.v.Format)
}

func (c cell) label() string { return fmt.Sprintf("%s/m%d", c.v, c.mode) }

// expand lists a variant once per mode it sweeps.
func expand(vs []*kernelreg.Variant, order int) []cell {
	var out []cell
	for _, v := range vs {
		modes := 1
		if v.Caps.ModeDependent {
			modes = order
		}
		for m := 0; m < modes; m++ {
			out = append(out, cell{v, m})
		}
	}
	return out
}

// hostCells is the pastabench -measure-host grid: every (kernel,
// format) through kernelreg.HostVariant, plus the two out-of-core
// streaming cells, on every mode.
func hostCells(order int) ([]cell, error) {
	var vs []*kernelreg.Variant
	for _, p := range kernelreg.Grid() {
		v, err := kernelreg.HostVariant(p.Kernel, p.Format)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	for _, k := range []roofline.Kernel{roofline.Ttv, roofline.Mttkrp} {
		v, err := kernelreg.Lookup(k, roofline.COO, kernelreg.OOC)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return expand(vs, order), nil
}

// ompCells is every OMP variant, hand-tuned and generated, on every
// mode.
func ompCells(order int) []cell {
	var vs []*kernelreg.Variant
	for _, v := range kernelreg.All() {
		if v.Backend == kernelreg.OMP {
			vs = append(vs, v)
		}
	}
	return expand(vs, order)
}
