package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/roofline"
)

// checkResult is what one correctness check found and what its three
// verification calls cost.
type checkResult struct {
	failed          bool
	ref, canon, cmp time.Duration
	outputs         int
}

// check compares every output with the serial-COO reference of its
// workbench (Workbench.Reference) through kernelreg.Compare at
// tolerance, outside any timed region. A deviation or a non-finite
// output is recorded as wrong. Work is spread over one worker per CPU;
// the reported times are the sums of the individual calls.
func (b *bench) check(outs []output, op int) checkResult {
	ctx := context.Background()
	var res checkResult
	start := time.Now()
	root := begin(b.tr, "op.check", b.workload, op, span{}, 0)
	defer root.end()

	// One workbench at a time, so only its references are resident.
	var groups [][]output
	group := map[*kernelreg.Workbench]int{}
	for _, o := range outs {
		i, ok := group[o.wb]
		if !ok {
			i = len(groups)
			group[o.wb] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], o)
	}
	type refKey struct {
		k    roofline.Kernel
		mode int
	}
	var mu sync.Mutex
	var wrong []string
	workers := runtime.NumCPU()
	for _, g := range groups {
		wb := g[0].wb
		var keys []refKey
		refs := map[refKey]kernelreg.Canon{}
		for _, o := range g {
			k := refKey{o.c.v.Kernel, o.c.mode}
			if _, ok := refs[k]; !ok {
				refs[k] = nil
				keys = append(keys, k)
			}
		}
		forEach(len(keys), workers, func(i, w int) {
			k := keys[i]
			sp := begin(b.tr, "Workbench.Reference", fmt.Sprintf("%s %s/m%d", g[0].tensor, k.k, k.mode), op, root, w+1)
			t0 := time.Now()
			c, err := wb.Reference(ctx, k.k, k.mode)
			d := time.Since(t0)
			sp.end()
			mu.Lock()
			defer mu.Unlock()
			res.ref += d
			refs[k] = c
			if err != nil {
				wrong = append(wrong, fmt.Sprintf("%s %s mode %d: reference: %v", g[0].tensor, k.k, k.mode, err))
			}
		})
		forEach(len(g), workers, func(i, w int) {
			o := g[i]
			detail := o.tensor + " " + o.c.label()
			finite := o.inst.Check()
			sp := begin(b.tr, "Instance.Output", detail, op, root, w+1)
			t0 := time.Now()
			canon := o.inst.Output()
			t1 := time.Now()
			sp.end()
			mu.Lock()
			ref := refs[refKey{o.c.v.Kernel, o.c.mode}]
			mu.Unlock()
			sp = begin(b.tr, "kernelreg.Compare", detail, op, root, w+1)
			dev := kernelreg.Compare(canon, ref)
			t2 := time.Now()
			sp.end()
			mu.Lock()
			defer mu.Unlock()
			res.canon += t1.Sub(t0)
			res.cmp += t2.Sub(t1)
			res.outputs++
			switch {
			case finite != nil:
				wrong = append(wrong, fmt.Sprintf("%s: %v", detail, finite))
			case dev > tolerance:
				wrong = append(wrong, fmt.Sprintf("%s: deviation %.3g from the serial-COO reference exceeds %g", detail, dev, tolerance))
			}
		})
	}
	for _, w := range wrong {
		b.bad("%s", w)
	}
	fmt.Printf("check: %d outputs against the serial-COO reference in %.1fs (reference %.1fs, canon %.1fs, compare %.1fs summed over %d workers)\n",
		res.outputs, time.Since(start).Seconds(), res.ref.Seconds(), res.canon.Seconds(), res.cmp.Seconds(), workers)
	res.failed = len(wrong) > 0
	return res
}

// forEach runs f(i, worker) for i in [0, n) on a fixed set of workers
// and returns when all calls have.
func forEach(n, workers int, f func(i, worker int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i, w)
			}
		}(w)
	}
	wg.Wait()
}
