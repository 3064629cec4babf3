// Command perfledger is the repository's measured benchmark: three seeded
// workloads driven from one process through the public functions of each
// layer (tensor, kernelreg with its format conversions, core/parallel
// through Instance.Run, and ooc/dist/govern through serve), with their
// end-to-end metrics printed by name and unit.
//
//	perfledger --workload cold-pass --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the named workload untraced and prints the
// end-to-end metrics. With --trace 1 it runs the traced ledger instead:
// every workload once more, with a span around each public call, written
// as Chrome trace_event JSON, and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// Inputs are generated from --seed and written under
// .bench_build/perfledger in the working directory, which must be the
// repository root. A wrong output makes the command exit 1 after
// printing its result. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// tolerance is the worst relative deviation from the serial-COO
// reference an output may show (float32 reduction-order noise).
const tolerance = 2e-3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	// out is the benchmark's own directory under the checkout; work is
	// this run's input directory inside it, removed at exit.
	out, work string
	// tr records spans on a traced run; nil otherwise.
	tr *obs.Tracer

	metrics   map[string]metric
	notes     map[string]string
	attempted int
	failed    int
	// wrong lists outputs off the reference and exact counts that did
	// not repeat; any entry makes the run incorrect.
	wrong []string
	// counts are the exact counts that must repeat for one seed.
	counts map[string]string
}

var workloads = map[string]func(*bench) error{
	"cold-pass":    runColdPass,
	"kernels-warm": runKernelsWarm,
	"serve-mix":    runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "cold-pass, kernels-warm or serve-mix")
		seed     = flag.Int64("seed", 1, "input and request-sequence seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced ledger and prints per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfledger --workload cold-pass|kernels-warm|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger: run from the repository root")
		os.Exit(2)
	}
	parallel.SetNumThreads(runtime.NumCPU())

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		metrics:  make(map[string]metric),
		notes:    make(map[string]string),
		counts:   make(map[string]string),
	}
	b.out = filepath.Join(".bench_build", "perfledger")
	b.work = filepath.Join(b.out, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	err := func() error {
		defer os.RemoveAll(b.work)
		if *trace == 1 {
			return runLedger(b)
		}
		if err := run(b); err != nil {
			return err
		}
		return b.checkCounts()
	}()
	if err != nil {
		fatal(err)
	}
	b.print()
	if len(b.wrong) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfledger:", err)
	os.Exit(1)
}

// set records one metric; note, when given, is printed beside it.
func (b *bench) set(name string, v float64, unit string, note ...string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	if len(note) > 0 {
		b.notes[name] = strings.Join(note, " ")
	}
}

// bad records a wrong output or a count that did not repeat.
func (b *bench) bad(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfledger: WRONG:", msg)
	b.wrong = append(b.wrong, msg)
}

// print writes the human-readable table, then the JSON result line.
func (b *bench) print() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfledger %s seed=%d threads=%d\n", b.workload, b.seed, parallel.NumThreads())
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("  %-44s %14.6g %-8s %s\n", n, m.Value, m.Unit, b.notes[n])
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("  %-44s %14.6g %-8s failed %d of %d ops\n", "fail_frac", frac, "ratio", b.failed, b.attempted)
	line, err := json.Marshal(result{
		Correct:   len(b.wrong) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
