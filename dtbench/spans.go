package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names. Every span wraps one call into a public function of the
// program, or is derived from a public record the program returns (the
// phase durations of core.Stats, the job record's timestamps). Root spans
// (prefix "op.") are the benchmark's end-to-end operations.
const (
	spanApproximate = "core.Approximate"
	spanDecompose   = "core.Approximation.Decompose"
	spanInit        = "core.init"
	spanIter        = "core.iter"
	spanSubmit      = "client.Submit"
	spanJob         = "client.Job"
	spanResult      = "client.Result"
	spanAppend      = "client.Append"
	spanRange       = "client.Range"
	spanQueueWait   = "server.queue_wait"
	spanRun         = "server.run"
	spanMetricz     = "http.metricz"
)

// layerSpans lists the spans whose self time the traced run reports, in
// output order.
var layerSpans = []string{
	spanApproximate, spanDecompose, spanInit, spanIter,
	spanSubmit, spanJob, spanResult, spanAppend, spanRange,
	spanQueueWait, spanRun, spanMetricz,
}

// span is one recorded interval. Start and End are offsets from the
// tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same code at no cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known, such as a phase
// duration reported by the program.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the traced run reports about its spans.
type traceSummary struct {
	spans int
	roots int
	// self is the summed self time per span name: each span's duration
	// minus the part of it that its children cover.
	self map[string]time.Duration
	// rootTotal and uncovered sum the root spans' durations and the parts
	// of them no child span covers.
	rootTotal, uncovered time.Duration
}

// summarize computes self times. Every span must have been closed.
func (t *tracer) summarize() (traceSummary, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sum := traceSummary{spans: len(spans), self: make(map[string]time.Duration)}
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < 0 {
			return sum, fmt.Errorf("span %q (id %d) was never closed", s.Name, s.ID)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		sum.self[s.Name] += self
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			sum.roots++
			sum.rootTotal += s.End - s.Start
			sum.uncovered += self
		}
	}
	return sum, nil
}

// covered returns how much of parent's interval the union of kids covers.
// Children may overlap one another (a client poll runs while the server
// works), so the union is taken, not the sum.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, v := range iv {
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerMetrics turns a summary into the per-layer trace metrics: self time
// per span name per end-to-end operation, and the share of end-to-end time
// no span covers.
func (s traceSummary) layerMetrics(out map[string]float64) {
	ops := float64(max(s.roots, 1))
	for _, name := range layerSpans {
		out["self_ms."+name] = s.self[name].Seconds() * 1e3 / ops
	}
	out["trace.spans"] = float64(s.spans)
	if s.rootTotal > 0 {
		out["trace.unattributed_pct"] = 100 * s.uncovered.Seconds() / s.rootTotal.Seconds()
	} else {
		out["trace.unattributed_pct"] = 0
	}
}
