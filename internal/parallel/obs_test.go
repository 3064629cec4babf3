package parallel

import (
	"testing"

	"repro/internal/obs"
)

// TestDisabledTracingZeroAlloc is the observability cost contract CI
// enforces: with no tracer enabled and hot-path counting off, the obs
// instrumentation in For must add zero allocations per loop. The
// serial chunk path allocated exactly 2 objects per call before
// instrumentation (the loopCtl and the hook-load indirection), so any
// rise above that baseline is an obs regression.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	if obs.Current() != nil {
		t.Fatal("tracer enabled at test start")
	}
	obs.EnableCounters(false)
	data := make([]float32, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		For(len(data), Options{Threads: 1}, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				data[i]++
			}
		})
	})
	if allocs > 2 {
		t.Fatalf("disabled-tracing serial For allocates %v/op, want <= 2 (pre-obs baseline)", allocs)
	}
}

// BenchmarkForDisabledTracing is the allocs/op view of the same
// contract (run with -benchmem).
func BenchmarkForDisabledTracing(b *testing.B) {
	data := make([]float32, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(data), Options{Threads: 1}, func(lo, hi, w int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

// TestForSpanRecorded covers the enabled side: a traced For emits one
// chunk-phase span, and chunk counting ticks when enabled.
func TestForSpanRecorded(t *testing.T) {
	tr := obs.New()
	obs.Enable(tr)
	obs.EnableCounters(true)
	defer obs.EnableCounters(false)
	defer obs.Disable()

	before := obs.CounterSnapshot()
	err := For(1000, Options{Threads: 4, Schedule: Dynamic, Chunk: 64}, func(lo, hi, w int) {})
	if err != nil {
		t.Fatal(err)
	}
	after := obs.CounterSnapshot()

	var forSpans int
	for _, s := range tr.Spans() {
		if s.Name == "parallel.For" && s.Phase == obs.PhaseChunk {
			forSpans++
		}
	}
	if forSpans != 1 {
		t.Fatalf("spans: For=%d, want 1", forSpans)
	}
	d := obs.DiffSnapshot(before, after)
	if d["parallel.chunks"] < int64(1000/64) {
		t.Fatalf("chunk counter delta = %d, want >= %d", d["parallel.chunks"], 1000/64)
	}
}

// TestAtomicAddCounters pins the hot-path gating: atomic adds count
// only while counting is enabled.
func TestAtomicAddCounters(t *testing.T) {
	var x float32
	obs.EnableCounters(false)
	before := obs.CounterSnapshot()
	AtomicAddFloat32(&x, 1)
	mid := obs.CounterSnapshot()
	if d := obs.DiffSnapshot(before, mid); d["parallel.atomic_adds"] != 0 {
		t.Fatalf("gated counter ticked while disabled: %v", d)
	}
	obs.EnableCounters(true)
	defer obs.EnableCounters(false)
	AtomicAddFloat32(&x, 1)
	var y float64
	AtomicAddFloat64(&y, 1)
	after := obs.CounterSnapshot()
	if d := obs.DiffSnapshot(mid, after); d["parallel.atomic_adds"] != 2 {
		t.Fatalf("atomic_adds delta = %v, want 2", d["parallel.atomic_adds"])
	}
}
