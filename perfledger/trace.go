package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is an open span around one public call: its obs handle, and the
// id its children give as their parent. The spans are recorded by the
// benchmark around its calls into the program on its own obs.Tracer,
// which is never enabled globally, so the program itself is not
// instrumented. On an untraced run the tracer is nil and the zero span
// records nothing.
type span struct {
	a  obs.Active
	id int64
}

// spanIDs numbers the spans of a run from 1; parent 0 marks an op's
// root.
var spanIDs atomic.Int64

// begin opens a span on tr named after the public call it wraps, with
// detail naming the operand. op groups the spans of one pass, sweep or
// request; lane is the goroutine lane, one Chrome thread each.
func begin(tr *obs.Tracer, name, detail string, op int, parent span, lane int) span {
	if tr == nil {
		return span{}
	}
	layer, phase := classify(name)
	s := span{a: obs.BeginOn(tr, name, detail, phase, lane), id: spanIDs.Add(1)}
	s.a.Attr("op", strconv.Itoa(op))
	s.a.Attr("id", strconv.FormatInt(s.id, 10))
	s.a.Attr("parent", strconv.FormatInt(parent.id, 10))
	s.a.Attr("layer", layer)
	return s
}

func (s *span) end() { s.a.End() }

// classify maps a span name onto the layer the per-layer table reports
// and the obs phase the span carries.
func classify(name string) (string, obs.Phase) {
	switch {
	case strings.HasPrefix(name, "op."):
		return "(op self: unattributed)", obs.PhaseTrial
	case name == "tensor.ReadFile":
		return "tensor", obs.PhasePrepare
	case name == "COO.SortForMode":
		return "tensor", obs.PhaseSort
	case name == "Workbench.HX", name == "Workbench.HY":
		return "hicoo", obs.PhaseConvert
	case name == "Workbench.CSF":
		return "csf", obs.PhaseConvert
	case name == "Workbench.Hier":
		return "levels (planner)", obs.PhaseConvert
	case name == "Workbench.TileReader":
		return "ooc", obs.PhaseConvert
	case name == "kernelreg.NewWorkbench", name == "Variant.Prepare":
		return "kernelreg prepare", obs.PhasePrepare
	case name == "Instance.Run", name == "Instance.Serial":
		return "core/parallel run", obs.PhaseTrial
	case name == "Workbench.Reference", name == "Instance.Output", name == "kernelreg.Compare":
		return "verify", obs.PhaseVerify
	case strings.HasPrefix(name, "serve."):
		return "serve (HTTP round trip)", obs.PhaseTrial
	}
	return "other", obs.PhaseTrial
}

// attr returns the value of a span attribute, "" when absent.
func attr(s obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// parents returns, for each span, the index of its parent span, -1 for
// an op's root.
func parents(spans []obs.Span) []int {
	byID := make(map[string]int, len(spans))
	for i, s := range spans {
		byID[attr(s, "id")] = i
	}
	out := make([]int, len(spans))
	for i, s := range spans {
		p, ok := byID[attr(s, "parent")]
		if !ok {
			p = -1
		}
		out[i] = p
	}
	return out
}

// selfTimes returns every span's duration minus the union of its
// children's intervals.
func selfTimes(spans []obs.Span, parent []int) []time.Duration {
	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Duration{spans[c].Start, spans[c].Start + spans[c].Dur})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE time.Duration
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curE {
				if iv[1] > curE {
					curE = iv[1]
				}
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.Dur - covered
	}
	return self
}

// unattributed returns, for each root span named name, the share of its
// duration no child span covers.
func unattributed(spans []obs.Span, name string) []float64 {
	parent := parents(spans)
	self := selfTimes(spans, parent)
	var out []float64
	for i, s := range spans {
		if s.Name == name && parent[i] < 0 && s.Dur > 0 {
			out = append(out, float64(self[i])/float64(s.Dur))
		}
	}
	return out
}

// printLayers prints the per-layer table: call count, total and self
// time per layer, over every recorded span.
func printLayers(spans []obs.Span) {
	self := selfTimes(spans, parents(spans))
	type agg struct {
		n           int
		total, self time.Duration
	}
	rows := map[string]*agg{}
	for i, s := range spans {
		l := attr(s, "layer")
		a := rows[l]
		if a == nil {
			a = &agg{}
			rows[l] = a
		}
		a.n++
		a.total += s.Dur
		a.self += self[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	fmt.Printf("per-layer self time over %d spans:\n", len(spans))
	fmt.Printf("  %-26s %8s %12s %12s\n", "layer", "spans", "total(ms)", "self(ms)")
	for _, n := range names {
		a := rows[n]
		fmt.Printf("  %-26s %8d %12.1f %12.1f\n", n, a.n, ms(a.total), ms(a.self))
	}
}
