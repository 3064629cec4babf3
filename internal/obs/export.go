package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// TraceEvent is one Chrome trace_event object — the subset of the
// trace-event format the suite emits ("X" complete events for
// intervals, "i" instant events) and the validator checks ("B"/"E"
// duration pairs are accepted on input for traces produced elsewhere).
type TraceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	// Ts and Dur are microseconds, per the trace-event spec.
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// traceDoc is the JSON-object form of a trace file, the one
// about:tracing and Perfetto both load.
type traceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// spanTid maps a span's worker id onto a Chrome thread id: harness
// spans (worker -1) render on tid 0, worker w on tid w+1.
func spanTid(s Span) int { return int(s.Worker) + 1 }

func spanArgs(s Span) map[string]string {
	if s.Variant == "" && len(s.Attrs) == 0 {
		return nil
	}
	args := make(map[string]string, len(s.Attrs)+1)
	if s.Variant != "" {
		args["variant"] = s.Variant
	}
	for _, a := range s.Attrs {
		args[a.Key] = a.Val
	}
	return args
}

// ToTraceEvents converts recorded spans into Chrome trace events.
func ToTraceEvents(spans []Span) []TraceEvent {
	evs := make([]TraceEvent, 0, len(spans))
	for _, s := range spans {
		ev := TraceEvent{
			Name: s.Name, Cat: s.Phase.String(),
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: spanTid(s), Args: spanArgs(s),
		}
		if s.Instant {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			ev.Dur = float64(s.Dur) / float64(time.Microsecond)
		}
		evs = append(evs, ev)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return evs
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON document
// that loads in about:tracing and Perfetto.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	doc := traceDoc{TraceEvents: ToTraceEvents(spans), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteChromeTraceFile writes the trace to path and validates the
// bytes it just wrote, so a malformed export can never be shipped as
// an artifact silently.
func WriteChromeTraceFile(path string, spans []Span) error {
	var b strings.Builder
	if err := WriteChromeTrace(&b, spans); err != nil {
		return err
	}
	data := []byte(b.String())
	if err := ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("obs: refusing to write malformed trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// PhaseSummary aggregates the spans of one (phase, name) pair.
type PhaseSummary struct {
	Phase Phase
	Name  string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Mean is the average span duration.
func (p PhaseSummary) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Summarize aggregates spans by (phase, name), sorted by descending
// total time — the "where did the time go" table.
func Summarize(spans []Span) []PhaseSummary {
	type key struct {
		p Phase
		n string
	}
	agg := make(map[key]*PhaseSummary)
	var order []key
	for _, s := range spans {
		if s.Instant {
			continue
		}
		k := key{s.Phase, s.Name}
		ps := agg[k]
		if ps == nil {
			ps = &PhaseSummary{Phase: s.Phase, Name: s.Name}
			agg[k] = ps
			order = append(order, k)
		}
		ps.Count++
		ps.Total += s.Dur
		if s.Dur > ps.Max {
			ps.Max = s.Dur
		}
	}
	out := make([]PhaseSummary, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// WriteSummary prints the aggregated span table.
func WriteSummary(w io.Writer, spans []Span) {
	sums := Summarize(spans)
	if len(sums) == 0 {
		fmt.Fprintln(w, "(no spans recorded)")
		return
	}
	fmt.Fprintf(w, "%-10s %-24s %8s %14s %14s %14s\n",
		"phase", "name", "count", "total", "mean", "max")
	for _, s := range sums {
		fmt.Fprintf(w, "%-10s %-24s %8d %14v %14v %14v\n",
			s.Phase, s.Name, s.Count, s.Total.Round(time.Microsecond),
			s.Mean().Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
}

// WriteCounterSummary prints a name-sorted counter table; when
// nonZeroOnly is set, idle counters are elided.
func WriteCounterSummary(w io.Writer, snap map[string]int64, nonZeroOnly bool) {
	names := make([]string, 0, len(snap))
	for k := range snap {
		if nonZeroOnly && snap[k] == 0 {
			continue
		}
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "(no counters)")
		return
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %12d\n", n, snap[n])
	}
}
