package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// The cold-pass and kernels-warm tensors: a cubical Kronecker tensor, a
// power-law tensor with a short mode, and a 4-D power-law tensor that is
// hypersparse in its two long modes.
var passTensors = []string{"regS", "irrS", "irr2S4d"}

// passNNZ is their size. See NOTES.md for why it is below the 100k of
// pastabench -measure-host.
const passNNZ = 25000

// opStats is what one pass or sweep measured.
type opStats struct {
	wall            time.Duration
	flops, mttFlops int64
	run, mttRun     time.Duration
	// lat is the latency of each cell (Prepare and Run on a cold pass,
	// Run on a warm sweep), in ms.
	lat []float64
	// layer sums per-layer times (ms) and sizes under their metric names.
	layer      map[string]float64
	plans      map[string]int
	strategies map[string]int
}

func newOpStats() *opStats {
	return &opStats{layer: map[string]float64{}, plans: map[string]int{}, strategies: map[string]int{}}
}

// addRun accounts one Instance.Run of a cell.
func (st *opStats) addRun(c cell, inst *kernelreg.Instance, d time.Duration) {
	st.flops += inst.Flops
	st.run += d
	if c.v.Kernel == roofline.Mttkrp {
		st.mttFlops += inst.Flops
		st.mttRun += d
	}
	if inst.Strategy != nil {
		st.strategies[inst.Strategy()]++
	}
}

func gflops(flops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e9
}

// output is a prepared instance whose last output the check compares.
type output struct {
	tensor string
	wb     *kernelreg.Workbench
	c      cell
	inst   *kernelreg.Instance
}

// coldPass reads every input, builds a fresh Workbench per tensor, and
// prepares and runs every host cell once. When traced, the format
// conversions a cell's Prepare would build are first requested from the
// Workbench under their own spans, so Prepare reuses them and no work is
// done twice.
func (b *bench) coldPass(op int, inputs []input) (*opStats, []output, error) {
	ctx := context.Background()
	st := newOpStats()
	var outs []output
	root := begin(b.tr, "op.pass", "cold-pass", op, span{}, 0)
	defer root.end()
	start := time.Now()
	for _, in := range inputs {
		sp := begin(b.tr, "tensor.ReadFile", in.name, op, root, 0)
		t0 := time.Now()
		x, err := tensor.ReadFile(in.path)
		st.layer["tensor.read_ms"] += ms(time.Since(t0))
		st.layer["tensor.read_bytes"] += float64(in.bytes)
		sp.end()
		if err != nil {
			return st, nil, err
		}
		sp = begin(b.tr, "kernelreg.NewWorkbench", in.name, op, root, 0)
		wb := kernelreg.NewWorkbench(x, kernelreg.DefaultConfig())
		sp.end()
		cells, err := hostCells(x.Order())
		if err != nil {
			return st, nil, err
		}
		for _, c := range cells {
			c0 := time.Now()
			if b.tr != nil {
				b.preconvert(st, wb, c, op, root)
			}
			sp := begin(b.tr, "Variant.Prepare", in.name+" "+c.label(), op, root, 0)
			p0 := time.Now()
			inst, err := c.v.Prepare(wb, c.mode)
			p1 := time.Now()
			sp.end()
			if err != nil {
				return st, nil, fmt.Errorf("%s %s: prepare: %w", in.name, c.label(), err)
			}
			sp = begin(b.tr, "Instance.Run", in.name+" "+c.label(), op, root, 0)
			err = inst.Run(ctx)
			r1 := time.Now()
			sp.end()
			if err != nil {
				return st, nil, fmt.Errorf("%s %s: run: %w", in.name, c.label(), err)
			}
			st.addRun(c, inst, r1.Sub(p1))
			st.layer["kernelreg.prepare_ms."+c.v.Format.String()] += ms(p1.Sub(p0))
			st.lat = append(st.lat, ms(r1.Sub(c0)))
			if inst.Plan != "" {
				st.plans[inst.Plan]++
			}
			outs = append(outs, output{in.name, wb, c, inst})
		}
	}
	st.wall = time.Since(start)
	st.layer["kernelreg.run_ms"] = ms(st.run)
	return st, outs, nil
}

// genericModeOrder is the mode order kernelreg's generated variants ask
// the planner for: Mttkrp's output mode first, otherwise the product
// mode last.
func genericModeOrder(k roofline.Kernel, order, mode int) []int {
	others := make([]int, 0, order)
	for n := 0; n < order; n++ {
		if n != mode {
			others = append(others, n)
		}
	}
	if k == roofline.Mttkrp {
		return append([]int{mode}, others...)
	}
	return append(others, mode)
}

// preconvert requests, under its own span, the conversion the cell's
// Prepare will reuse from the Workbench cache. Conversion errors are left
// for Prepare, which meets the same error and reports it.
func (b *bench) preconvert(st *opStats, wb *kernelreg.Workbench, c cell, op int, parent span) {
	timed := func(name, key string, f func()) {
		sp := begin(b.tr, name, c.label(), op, parent, 0)
		t0 := time.Now()
		f()
		st.layer[key] += ms(time.Since(t0))
		sp.end()
	}
	order := wb.X.Order()
	switch {
	case c.v.Backend == kernelreg.OOC:
		timed("Workbench.TileReader", "ooc.tile_image_ms", func() { _, _ = wb.TileReader() })
	case c.v.Generated:
		mo := genericModeOrder(c.v.Kernel, order, c.mode)
		timed("Workbench.Hier", "levels.build_ms", func() { _, _, _ = wb.Hier(c.v.Format, mo, c.v.String()) })
	case c.v.Format == roofline.HiCOO:
		timed("Workbench.HX", "hicoo.from_coo_ms", func() { wb.HX() })
		if c.v.Kernel == roofline.Tew {
			timed("Workbench.HY", "hicoo.from_coo_ms", func() { wb.HY() })
		}
	case c.v.Format == roofline.CSF && c.v.Kernel == roofline.Ttv:
		mo := genericModeOrder(roofline.Ttv, order, c.mode)
		timed("Workbench.CSF", "csf.from_coo_ms", func() { _, _ = wb.CSF(mo, "Ttv-leaf") })
	case c.v.Format == roofline.CSF && c.v.Kernel == roofline.Mttkrp:
		mo := genericModeOrder(roofline.Mttkrp, order, c.mode)
		timed("Workbench.CSF", "csf.from_coo_ms", func() { _, _ = wb.CSF(mo, "Mttkrp-root") })
	}
}

// opMetrics sets the end-to-end metrics shared by cold-pass and
// kernels-warm from their ops, named by what ("passes" or "sweeps").
func (b *bench) opMetrics(ops []*opStats, wall time.Duration, what string) {
	var walls, gf, mgf, lat []float64
	cells := 0
	for _, st := range ops {
		walls = append(walls, st.wall.Seconds())
		gf = append(gf, gflops(st.flops, st.run))
		mgf = append(mgf, gflops(st.mttFlops, st.mttRun))
		lat = append(lat, st.lat...)
		cells += len(st.lat)
	}
	b.set("pass_s", median(walls), "s", fmt.Sprintf("median wall (n=%d %s)", len(ops), what))
	b.set("gflops", median(gf), "GFLOP/s", "sum flops / sum Instance.Run, median over", what)
	b.set("mttkrp_gflops", median(mgf), "GFLOP/s", "Mttkrp cells only")
	b.set("req_per_s", float64(cells)/wall.Seconds(), "req/s", "cells per second")
	b.set("req_p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("cell latency (n=%d)", len(lat)))
	b.set("req_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("cell latency (n=%d)", len(lat)))
}

func runColdPass(b *bench) error {
	var inputs []input
	setup, err := repeatSetup(func() error {
		var err error
		inputs, err = writeInputs(b.work, passTensors, passNNZ, b.seed)
		return err
	}, nil)
	if err != nil {
		return err
	}
	b.set("setup_s", setup, "s", "median of", fmt.Sprint(setupReps), "generate+write set-ups")

	var ops []*opStats
	var last []output
	start := time.Now()
	for op := 0; len(ops) == 0 || time.Since(start) < b.seconds; op++ {
		last = nil
		runtime.GC()
		st, outs, err := b.coldPass(op, inputs)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintln(os.Stderr, "perfledger: pass failed:", err)
			if b.attempted > 3 && len(ops) == 0 {
				return err
			}
			continue
		}
		ops = append(ops, st)
		last = outs
	}
	wall := time.Since(start)
	b.set("peak_rss_mb", peakRSSMiB(), "MiB", "process peak RSS at the end of the timed passes")
	b.opMetrics(ops, wall, "passes")

	if b.check(last, len(ops)).failed {
		b.failed++
	}
	b.passCounts(ops[0], last)
	return nil
}

// passCounts records the exact counts of one pass: per-cell flops, the
// planner's plans, and Auto's strategy choices.
func (b *bench) passCounts(st *opStats, outs []output) {
	flops := map[string]int64{}
	for _, o := range outs {
		flops[o.tensor+" "+o.c.key()] += o.inst.Flops
	}
	for k, v := range flops {
		b.counts["flops "+k] = fmt.Sprint(v)
	}
	b.counts["plans"] = countString(st.plans)
	b.counts["strategies"] = countString(st.strategies)
}

// countString renders a count map deterministically.
func countString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, ",")
}
