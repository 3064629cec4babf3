package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// ledgerPasses is how many cold passes the traced run makes with tracing
// on, and again with it off, alternating, for the overhead estimate.
const ledgerPasses = 3

// ledgerSweeps is how many traced kernels-warm sweeps it makes.
const ledgerSweeps = 3

// probeRuns is how many timed runs a probe takes the median of.
const probeRuns = 3

// plans are the conversion paths kernelreg's planner can report; each
// gets a count, and anything else counts as "other".
var plans = []string{
	"cached", "reuse-csf", "reuse-csf:levels.BlockRoot", "via-csf:csf.FromCOO",
	"via-csf:csf.FromCOO+levels.BlockRoot", "direct:levels.Build:CSF", "direct:levels.Build:bCSF",
}

func planMetric(p string) string {
	return "kernelreg.plan." + strings.NewReplacer(":", ".", "+", ".").Replace(p)
}

// runLedger is the traced run. Whatever workload is named, it runs all
// three with a span around each public call and reports every per-layer
// metric: the serve-mix window first (so the RSS ratio is the daemon's
// own), then cold passes alternating traced and untraced, then traced
// kernels-warm sweeps with the strategy and serial probes.
func runLedger(b *bench) error {
	b.tr = obs.New()
	start := time.Now()
	if err := b.ledgerServe(); err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	dir := filepath.Join(b.work, "pass")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	inputs, err := writeInputs(dir, passTensors, passNNZ, b.seed)
	if err != nil {
		return err
	}
	if err := b.ledgerCold(inputs); err != nil {
		return err
	}
	runtime.GC()
	if err := b.ledgerWarm(inputs); err != nil {
		return err
	}

	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	spans := b.tr.Spans()
	if err := obs.WriteChromeTraceFile(path, spans); err != nil {
		return err
	}
	printLayers(spans)
	fmt.Printf("traced run: %d spans in %.1fs; Chrome trace %s (validated)\n", len(spans), time.Since(start).Seconds(), path)
	return nil
}

// ledgerServe measures a serve-mix window traced and sets the serve,
// govern, ooc and dist layer metrics from the responses and the
// daemon's /metrics counters.
func (b *bench) ledgerServe() error {
	ss, err := b.serveMix(b.seconds)
	if err != nil {
		return err
	}
	var rtt = map[string][]float64{}
	var overhead, run []float64
	var hits, wbHits, batched int
	var commBytes, commMsgs int64
	status := map[string]int{}
	for _, r := range ss.results {
		b.attempted++
		if b.judge(r) {
			b.failed++
		}
		switch {
		case r.status == 200:
			status["200"]++
		case r.status >= 500:
			status["5xx"]++
		default:
			status["4xx"]++
		}
		if r.resp == nil {
			continue
		}
		class := "miss"
		switch {
		case r.m.kind == "verify":
			class = "verify"
		case r.resp.CacheHit:
			class = "hit"
			overhead = append(overhead, ms(r.rtt)-r.resp.ElapsedSec*1e3)
		}
		rtt[class] = append(rtt[class], ms(r.rtt))
		run = append(run, r.resp.ElapsedSec*1e3)
		if r.resp.CacheHit {
			hits++
		}
		if r.resp.WorkbenchHit {
			wbHits++
		}
		if r.resp.Batched {
			batched++
		}
		if r.resp.Dist != nil {
			commBytes += r.resp.Dist.CommBytes
			commMsgs += r.resp.Dist.CommMessages
		}
	}
	n := float64(len(ss.results))
	for _, class := range []string{"hit", "miss", "verify"} {
		b.set("serve.rtt_p50_ms."+class, quantile(rtt[class], 0.5), "ms", fmt.Sprintf("(n=%d)", len(rtt[class])))
	}
	for _, class := range []string{"hit", "miss"} {
		b.set("serve.rtt_p99_ms."+class, quantile(rtt[class], 0.99), "ms", fmt.Sprintf("(n=%d)", len(rtt[class])))
	}
	b.set("serve.overhead_p50_ms", quantile(overhead, 0.5), "ms", "round trip minus ElapsedSec on cache hits")
	b.set("serve.run_p50_ms", quantile(run, 0.5), "ms", "server-reported ElapsedSec")
	b.set("serve.cache_hit_frac", safeDiv(float64(hits), n), "ratio")
	b.set("serve.workbench_hit_frac", safeDiv(float64(wbHits), n), "ratio")
	b.set("serve.batched_frac", safeDiv(float64(batched), n), "ratio")
	for _, code := range []string{"200", "4xx", "5xx"} {
		b.set("serve.status."+code, float64(status[code]), "count")
	}
	delta := func(name string) float64 { return ss.after[name] - ss.before[name] }
	b.set("govern.admitted", delta("pasta_govern_admitted"), "count")
	b.set("govern.shed", delta("pasta_govern_shed"), "count")
	b.set("govern.cancelled", delta("pasta_govern_cancelled"), "count")
	b.set("serve.rss_over_budget", ss.peakRSS/float64(serveBudget>>20), "ratio",
		fmt.Sprintf("peak RSS %.0f MiB over MemBudget %d MiB", ss.peakRSS, serveBudget>>20))
	b.set("ooc.tiles", delta("pasta_ooc_tiles"), "count")
	b.set("ooc.bytes_read", delta("pasta_ooc_bytes_read"), "byte")
	b.set("ooc.prefetch_hit_frac", safeDiv(delta("pasta_ooc_prefetch_hits"),
		delta("pasta_ooc_prefetch_hits")+delta("pasta_ooc_prefetch_stalls")), "ratio")
	b.set("dist.comm_bytes", float64(commBytes), "byte")
	b.set("dist.comm_messages", float64(commMsgs), "count")
	return nil
}

// ledgerCold makes cold passes alternately untraced and traced, then the
// sort probe and the correctness check of the last traced pass.
func (b *bench) ledgerCold(inputs []input) error {
	tr := b.tr
	var traced, untraced []float64
	layers := map[string][]float64{}
	var last []output
	for i := 0; i < 2*ledgerPasses; i++ {
		last = nil
		runtime.GC()
		on := i%2 == 1
		if !on {
			b.tr = nil
		}
		st, outs, err := b.coldPass(i, inputs)
		b.tr = tr
		b.attempted++
		if err != nil {
			return err
		}
		if !on {
			untraced = append(untraced, st.wall.Seconds())
			if i == 0 {
				b.setPlans(st.plans)
			}
			continue
		}
		traced = append(traced, st.wall.Seconds())
		for k, v := range st.layer {
			layers[k] = append(layers[k], v)
		}
		last = outs
	}
	b.set("trace.overhead_s", median(traced)-median(untraced), "s",
		fmt.Sprintf("traced %.3fs minus untraced %.3fs median pass", median(traced), median(untraced)))
	b.set("trace.unattributed_frac", median(unattributed(b.tr.Spans(), "op.pass")), "ratio", "share of a traced pass no span covers")
	for _, k := range []string{"tensor.read_ms", "hicoo.from_coo_ms", "csf.from_coo_ms", "levels.build_ms", "kernelreg.run_ms"} {
		b.set(k, median(layers[k]), "ms", "median over traced passes")
	}
	for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO, roofline.CSF, roofline.BCSF, roofline.FCOO} {
		b.set("kernelreg.prepare_ms."+f.String(), median(layers["kernelreg.prepare_ms."+f.String()]), "ms",
			"Prepare after its conversions, median over traced passes")
	}
	b.set("tensor.read_mb_per_s", safeDiv(median(layers["tensor.read_bytes"])/1e6, median(layers["tensor.read_ms"])/1e3), "MB/s")

	sortMS, err := b.sortProbe(inputs)
	if err != nil {
		return err
	}
	b.set("tensor.sort_ms", sortMS, "ms", "COO.SortForMode on a clone, every tensor and mode, outside the pass")

	res := b.check(last, 2*ledgerPasses)
	if res.failed {
		b.failed++
	}
	b.set("kernelreg.reference_ms", ms(res.ref), "ms", fmt.Sprintf("check of one pass, %d outputs", res.outputs))
	b.set("kernelreg.canon_ms", ms(res.canon), "ms", "Instance.Output")
	b.set("kernelreg.compare_ms", ms(res.cmp), "ms", "kernelreg.Compare")
	return nil
}

// setPlans sets a count per known plan string from one pass's plans;
// the plans not listed in plans add up into kernelreg.plan.other.
func (b *bench) setPlans(counts map[string]int) {
	sums := map[string]int{"kernelreg.plan.other": 0}
	for _, p := range plans {
		sums[planMetric(p)] = 0
	}
	for p, n := range counts {
		name := planMetric(p)
		if !slices.Contains(plans, p) {
			name = "kernelreg.plan.other"
		}
		sums[name] += n
	}
	for name, n := range sums {
		b.set(name, float64(n), "count", "Instance.Plan over one untraced pass")
	}
}

// sortProbe times (*COO).SortForMode on a fresh clone of each input for
// every mode, under its own op outside any pass.
func (b *bench) sortProbe(inputs []input) (float64, error) {
	root := begin(b.tr, "op.sort-probe", "", -1, span{}, 0)
	defer root.end()
	var total time.Duration
	for _, in := range inputs {
		x, err := tensor.ReadFile(in.path)
		if err != nil {
			return 0, err
		}
		for mode := 0; mode < x.Order(); mode++ {
			y := x.Clone()
			sp := begin(b.tr, "COO.SortForMode", fmt.Sprintf("%s m%d", in.name, mode), -1, root, 0)
			t0 := time.Now()
			y.SortForMode(mode)
			total += time.Since(t0)
			sp.end()
		}
	}
	return ms(total), nil
}

// ledgerWarm prepares every OMP instance, makes traced sweeps, and runs
// the strategy and serial probes.
func (b *bench) ledgerWarm(inputs []input) error {
	ws, err := prepareWarm(inputs, kernelreg.DefaultConfig())
	if err != nil {
		return err
	}
	cellMS := map[string][]float64{}
	var first *opStats
	for i := 0; i < ledgerSweeps; i++ {
		st, err := b.sweep(ws, 100+i)
		b.attempted++
		if err != nil {
			return err
		}
		if first == nil {
			first = st
		}
		for k, v := range st.layer {
			cellMS[k] = append(cellMS[k], v)
		}
	}
	for k, v := range cellMS {
		b.set(k, median(v), "ms", "all tensors and modes, median over sweeps")
	}
	for _, s := range []string{"owner", "atomic", "privatized"} {
		b.set("parallel.strategy."+s, float64(first.strategies[s]), "count", "Auto's choices over one sweep")
	}
	flops, bytes := ws.kernelTotals()
	for _, k := range roofline.Kernels {
		b.set("flops."+k.String(), float64(flops[k.String()]), "flop", "Table-1 flops of one sweep")
		b.set("bytes_computed."+k.String(), float64(bytes[k.String()]), "byte", "Variant.Model bytes of one sweep")
	}
	if err := b.strategyProbe(ws); err != nil {
		return err
	}
	return b.serialProbe(ws)
}

// timeRuns returns the median of probeRuns timed calls of f, each under
// its own span.
func (b *bench) timeRuns(f func(context.Context) error, name, detail string, parent span) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeRuns; i++ {
		sp := begin(b.tr, name, detail, -1, parent, 0)
		t0 := time.Now()
		err := f(context.Background())
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", name, detail, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// strategyProbe re-prepares every StrategyAware cell on a second
// workbench per forced strategy (Config.Sched.Strategy) and reports, per
// (kernel, format), Auto's time over the best forced strategy's.
func (b *bench) strategyProbe(ws *warmSet) error {
	root := begin(b.tr, "op.strategy-probe", "", -1, span{}, 0)
	defer root.end()
	type key struct {
		x *tensor.COO
		c cell
	}
	auto := map[key]time.Duration{}
	for _, o := range ws.outs {
		if !o.c.v.Caps.StrategyAware {
			continue
		}
		d, err := b.timeRuns(o.inst.Run, "Instance.Run", "auto "+o.tensor+" "+o.c.label(), root)
		if err != nil {
			return err
		}
		auto[key{o.wb.X, o.c}] = d
	}
	best := map[key]time.Duration{}
	for _, s := range []parallel.Strategy{parallel.Owner, parallel.Atomic, parallel.Privatized} {
		cfg := kernelreg.DefaultConfig()
		cfg.Sched.Strategy = s
		for _, x := range ws.xs {
			wb := kernelreg.NewWorkbench(x, cfg)
			for _, c := range ompCells(x.Order()) {
				if !c.v.Caps.StrategyAware {
					continue
				}
				inst, err := c.v.Prepare(wb, c.mode)
				if err != nil {
					return fmt.Errorf("%s %s: prepare: %w", s, c.label(), err)
				}
				if err := inst.Run(context.Background()); err != nil {
					return fmt.Errorf("%s %s: run: %w", s, c.label(), err)
				}
				d, err := b.timeRuns(inst.Run, "Instance.Run", s.String()+" "+c.label(), root)
				if err != nil {
					return err
				}
				k := key{x, c}
				if old, ok := best[k]; !ok || d < old {
					best[k] = d
				}
			}
		}
	}
	sumAuto, sumBest := map[string]time.Duration{}, map[string]time.Duration{}
	for k, d := range auto {
		sumAuto[k.c.key()] += d
		sumBest[k.c.key()] += best[k]
	}
	for name := range sumAuto {
		b.set("parallel.auto_regret."+name, safeDiv(float64(sumAuto[name]), float64(sumBest[name])), "ratio",
			"Auto time / best forced strategy time, all tensors and modes")
	}
	return nil
}

// serialProbe times Instance.Serial against Instance.Run on every OMP
// cell: the single-thread baseline.
func (b *bench) serialProbe(ws *warmSet) error {
	root := begin(b.tr, "op.serial-probe", "", -1, span{}, 0)
	defer root.end()
	par, ser := map[string]time.Duration{}, map[string]time.Duration{}
	for _, o := range ws.outs {
		detail := o.tensor + " " + o.c.label()
		dr, err := b.timeRuns(o.inst.Run, "Instance.Run", detail, root)
		if err != nil {
			return err
		}
		ds, err := b.timeRuns(o.inst.Serial, "Instance.Serial", detail, root)
		if err != nil {
			return err
		}
		par[o.c.key()] += dr
		ser[o.c.key()] += ds
	}
	for k := range par {
		b.set("speedup_vs_serial."+k, safeDiv(float64(ser[k]), float64(par[k])), "ratio", "Instance.Serial / Instance.Run time")
	}
	return nil
}
