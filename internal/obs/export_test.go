package obs

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleSpans() []Span {
	return []Span{
		{Name: "prepare", Variant: "Mttkrp/COO@omp", Phase: PhasePrepare, Worker: -1, Start: 0, Dur: 5 * time.Millisecond},
		{Name: "parallel.For", Phase: PhaseChunk, Worker: -1, Start: time.Millisecond, Dur: 2 * time.Millisecond},
		{Name: "fallback", Variant: "Mttkrp/COO@omp", Phase: PhaseFallback, Worker: -1, Instant: true,
			Start: 6 * time.Millisecond, Attrs: []Attr{{"to", "serial"}}},
		{Name: "gpusim.launch", Variant: "dev0", Phase: PhaseLaunch, Worker: 2, Start: 3 * time.Millisecond, Dur: time.Millisecond},
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTrace(&b, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	data := []byte(b.String())
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	evs, err := ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("parsed %d events, want 4", len(evs))
	}
	// Sorted by ts; spans become X, instants become i.
	var sawInstant, sawX bool
	last := -1.0
	for _, ev := range evs {
		if ev.Ts < last {
			t.Fatal("events not ts-sorted")
		}
		last = ev.Ts
		switch ev.Ph {
		case "X":
			sawX = true
		case "i":
			sawInstant = true
			if ev.Args["to"] != "serial" {
				t.Fatalf("instant args = %v", ev.Args)
			}
		}
	}
	if !sawInstant || !sawX {
		t.Fatal("expected both X and i events")
	}
	// Variant travels in args; harness spans land on tid 0.
	if evs[0].Args["variant"] != "Mttkrp/COO@omp" || evs[0].Tid != 0 {
		t.Fatalf("first event = %+v", evs[0])
	}
}

func TestWriteChromeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteChromeTraceFile(path, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTraceFile(filepath.Join(t.TempDir(), "empty.json"), nil); err == nil {
		t.Fatal("an empty trace must be refused, not written")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents": [`,
		"empty":          `{"traceEvents": []}`,
		"unnamed":        `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-1,"pid":1,"tid":0}]}`,
		"backwards ts":   `{"traceEvents":[{"name":"a","ph":"X","ts":9,"pid":1,"tid":0},{"name":"b","ph":"X","ts":3,"pid":1,"tid":0}]}`,
		"unknown phase":  `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":0}]}`,
		"orphan E":       `{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]}`,
		"mismatched B/E": `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},{"name":"b","ph":"E","ts":2,"pid":1,"tid":0}]}`,
		"unclosed B":     `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validation accepted malformed trace", name)
		}
	}
}

func TestValidateAcceptsBEPairs(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
		{"name":"b","ph":"B","ts":2,"pid":1,"tid":0},
		{"name":"b","ph":"E","ts":3,"pid":1,"tid":0},
		{"name":"a","ph":"E","ts":4,"pid":1,"tid":0},
		{"name":"m","ph":"M","ts":4,"pid":1,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(doc)); err != nil {
		t.Fatalf("well-nested B/E rejected: %v", err)
	}
	// The bare-array form is also legal trace JSON.
	arr := `[{"name":"a","ph":"X","ts":1,"dur":2,"pid":1,"tid":0}]`
	if err := ValidateChromeTrace([]byte(arr)); err != nil {
		t.Fatalf("bare-array trace rejected: %v", err)
	}
	// Separate lanes keep independent timestamp order.
	lanes := `{"traceEvents":[
		{"name":"a","ph":"X","ts":9,"pid":1,"tid":0},
		{"name":"b","ph":"X","ts":3,"pid":1,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(lanes)); err != nil {
		t.Fatalf("per-lane timestamps rejected: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	spans := []Span{
		{Name: "a", Phase: PhaseChunk, Dur: 3 * time.Millisecond},
		{Name: "a", Phase: PhaseChunk, Dur: time.Millisecond},
		{Name: "b", Phase: PhaseSort, Dur: time.Millisecond},
		{Name: "skip", Phase: PhaseFallback, Instant: true},
	}
	sums := Summarize(spans)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2 (instants excluded)", len(sums))
	}
	if sums[0].Name != "a" || sums[0].Count != 2 || sums[0].Total != 4*time.Millisecond {
		t.Fatalf("top summary = %+v", sums[0])
	}
	if sums[0].Mean() != 2*time.Millisecond || sums[0].Max != 3*time.Millisecond {
		t.Fatalf("mean/max = %v/%v", sums[0].Mean(), sums[0].Max)
	}
	var out strings.Builder
	WriteSummary(&out, spans)
	if !strings.Contains(out.String(), "chunk") {
		t.Fatal("summary table missing phase column")
	}
	WriteCounterSummary(&out, map[string]int64{"x": 3, "idle": 0}, true)
	if strings.Contains(out.String(), "idle") {
		t.Fatal("nonZeroOnly counter summary printed an idle counter")
	}
}
