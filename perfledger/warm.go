package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/perfmodel"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// warmSet is every OMP instance of the pass tensors, prepared once.
type warmSet struct {
	xs   []*tensor.COO
	outs []output
}

// prepareWarm reads the inputs and prepares every OMP cell of each on
// one workbench per tensor, built with cfg.
func prepareWarm(inputs []input, cfg kernelreg.Config) (*warmSet, error) {
	ws := &warmSet{}
	for _, in := range inputs {
		x, err := tensor.ReadFile(in.path)
		if err != nil {
			return nil, err
		}
		ws.xs = append(ws.xs, x)
		wb := kernelreg.NewWorkbench(x, cfg)
		for _, c := range ompCells(x.Order()) {
			inst, err := c.v.Prepare(wb, c.mode)
			if err != nil {
				return nil, fmt.Errorf("%s %s: prepare: %w", in.name, c.label(), err)
			}
			ws.outs = append(ws.outs, output{in.name, wb, c, inst})
		}
	}
	return ws, nil
}

// sweep runs every prepared instance once.
func (b *bench) sweep(ws *warmSet, op int) (*opStats, error) {
	ctx := context.Background()
	st := newOpStats()
	root := begin(b.tr, "op.sweep", "kernels-warm", op, span{}, 0)
	defer root.end()
	start := time.Now()
	for _, o := range ws.outs {
		sp := begin(b.tr, "Instance.Run", o.tensor+" "+o.c.label(), op, root, 0)
		t0 := time.Now()
		err := o.inst.Run(ctx)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return st, fmt.Errorf("%s %s: run: %w", o.tensor, o.c.label(), err)
		}
		st.addRun(o.c, o.inst, d)
		st.lat = append(st.lat, ms(d))
		st.layer["run_ms."+o.c.key()] += ms(d)
	}
	st.wall = time.Since(start)
	return st, nil
}

func runKernelsWarm(b *bench) error {
	var ws *warmSet
	setup, err := repeatSetup(func() error {
		inputs, err := writeInputs(b.work, passTensors, passNNZ, b.seed)
		if err != nil {
			return err
		}
		ws, err = prepareWarm(inputs, kernelreg.DefaultConfig())
		return err
	}, func() { ws = nil })
	if err != nil {
		return err
	}
	b.set("setup_s", setup, "s", "median of", fmt.Sprint(setupReps), "generate+write+read+Prepare set-ups,", fmt.Sprint(len(ws.outs)), "instances")

	var ops []*opStats
	start := time.Now()
	for op := 0; len(ops) == 0 || time.Since(start) < b.seconds; op++ {
		st, err := b.sweep(ws, op)
		b.attempted++
		if err != nil {
			b.failed++
			fmt.Fprintln(os.Stderr, "perfledger: sweep failed:", err)
			if b.attempted > 3 && len(ops) == 0 {
				return err
			}
			continue
		}
		ops = append(ops, st)
	}
	wall := time.Since(start)
	b.set("peak_rss_mb", peakRSSMiB(), "MiB", "process peak RSS at the end of the timed sweeps")
	b.opMetrics(ops, wall, "sweeps")

	if b.check(ws.outs, len(ops)).failed {
		b.failed++
	}
	b.sweepCounts(ws, ops[0])
	return nil
}

// sweepCounts records the exact counts of one sweep: per-kernel Table-1
// flops and Variant.Model bytes, and Auto's strategy choices.
func (b *bench) sweepCounts(ws *warmSet, st *opStats) {
	flops, bytes := ws.kernelTotals()
	for k, v := range flops {
		b.counts["flops "+k] = fmt.Sprint(v)
		b.counts["bytes_computed "+k] = fmt.Sprint(bytes[k])
	}
	b.counts["strategies"] = countString(st.strategies)
}

// kernelTotals sums, per kernel, the Table-1 flops of every instance and
// the bytes its variant's model computes for the tensor and mode.
func (ws *warmSet) kernelTotals() (flops, bytes map[string]int64) {
	flops, bytes = map[string]int64{}, map[string]int64{}
	cfg := kernelreg.DefaultConfig()
	params := map[*tensor.COO][]perfmodel.Workload{}
	for _, x := range ws.xs {
		params[x] = perfmodel.FromTensorAllModes(x, cfg.R, cfg.BlockBits)
	}
	for _, o := range ws.outs {
		w := params[o.wb.X][o.c.mode]
		_, by := o.c.v.Model(roofline.Params{Order: w.Order, M: w.M, MF: w.MF, Nb: w.Nb, R: w.R, BlockSize: w.BlockSize})
		k := o.c.v.Kernel.String()
		flops[k] += o.inst.Flops
		bytes[k] += by
	}
	return flops, bytes
}
