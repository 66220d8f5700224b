package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func smallDecomposition(t *testing.T) (*core.Decomposition, *core.Decomposition) {
	t.Helper()
	x := workload.VideoLike(24, 20, 10, 3).X
	opts := core.Config{Ranks: []int{4, 4, 3}}.Options()
	a, err := core.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSameResultCatchesCorruption(t *testing.T) {
	want, got := smallDecomposition(t)
	if err := sameResult("repeat", want, got); err != nil {
		t.Fatalf("identical runs reported different: %v", err)
	}
	// One flipped low-order bit in one factor entry must be caught, even
	// though the fit is unchanged.
	f := got.Factors[1].Data()
	f[3] = math.Float64frombits(math.Float64bits(f[3]) ^ 1)
	err := sameResult("corrupted", want, got)
	if err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("corrupted factor not caught: %v", err)
	}
	got.Factors[1].Data()[3] = want.Factors[1].Data()[3]
	got.Fit = math.Nextafter(got.Fit, 2)
	if err := sameResult("corrupted fit", want, got); err == nil {
		t.Fatal("corrupted fit not caught")
	}
}

func TestServeVerifyCatchesCorruptedHit(t *testing.T) {
	good, bad := smallDecomposition(t)
	bad.Core.Data()[0] += 1e-12
	dg, err := digestOf(good)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digestOf(bad)
	if err != nil {
		t.Fatal(err)
	}
	b := &serveBench{
		windows:    []window{{0, 32}},
		warmDigest: []digest{dg},
		records: []opRecord{
			{kind: opHit, idx: 0, digest: dg},
			{kind: opHit, idx: 0, digest: db},
			{kind: opRange, idx: 0, fit: math.NaN()},
		},
	}
	p := &pass{seed: 1, res: newResult()}
	b.verify(p)
	if p.res.failed != 2 {
		t.Fatalf("failed = %d, want 2 (one corrupted hit, one NaN range fit); problems %q", p.res.failed, p.res.problems)
	}
}

// A coalesced follower is polled but never starts; it must not add a zero
// queue wait or run to the server figures.
func TestCoalescedFollowerHasNoServerIntervals(t *testing.T) {
	b := &serveBench{records: []opRecord{
		{kind: opCold, latency: 30 * time.Millisecond, polled: true, polls: 4, ran: true,
			queueWait: 2 * time.Millisecond, run: 10 * time.Millisecond},
		{kind: opHit, latency: 12 * time.Millisecond, polled: true, polls: 2},
	}}
	p := &pass{seed: 1, res: newResult()}
	b.summarize(p, metricz{}, metricz{}, 0, time.Second)
	l := p.res.layer
	if l["server.queue_wait_ms"] != 2 || l["server.run_ms"] != 10 {
		t.Fatalf("queue wait %v ms, run %v ms; want 2 and 10 from the job that ran", l["server.queue_wait_ms"], l["server.run_ms"])
	}
	if l["client.polls"] != 3 {
		t.Fatalf("client.polls = %v, want 3 (both jobs were polled)", l["client.polls"])
	}
}

func TestSolveVerifyCatchesCorruptedSolve(t *testing.T) {
	x := workload.VideoLike(24, 20, 10, 5).X
	b := &solveBench{name: "test", x: x, opts: core.Config{Ranks: []int{4, 4, 3}}.Options()}
	p := &pass{seed: 1, d: 50 * time.Millisecond, res: newResult()}
	if err := b.measure(p); err != nil {
		t.Fatal(err)
	}
	if len(b.digests) < 2 {
		b.digests = append(b.digests, b.digests[0])
	}
	if err := b.verify(p); err != nil || p.res.failed != 0 {
		t.Fatalf("clean run failed verification: %v %q", err, p.res.problems)
	}
	// One timed solve disagreeing with the first is caught.
	b.digests[1][0] ^= 1
	if err := b.verify(p); err != nil || p.res.failed != 1 {
		t.Fatalf("failed = %d (%v), want 1 for one differing solve; problems %q", p.res.failed, err, p.res.problems)
	}
	b.digests[1][0] ^= 1
	// A first solve disagreeing with the single-worker reference is caught.
	p.res = newResult()
	b.ref.Factors[0].Data()[0] *= 1.0000001
	if err := b.verify(p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(p.res.problems, "\n"), "single-worker reference") {
		t.Fatalf("reference mismatch not reported; problems %q", p.res.problems)
	}
}

func TestCheckPinned(t *testing.T) {
	pinnedFits["test"] = map[int64]uint64{7: math.Float64bits(0.5)}
	defer delete(pinnedFits, "test")
	if err := checkPinned("test", 7, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := checkPinned("test", 7, math.Nextafter(0.5, 1)); err == nil {
		t.Fatal("a one-ulp fit change passed the pin")
	}
	if err := checkPinned("test", 8, 0.1); err != nil {
		t.Fatalf("unpinned seed: %v", err)
	}
}

func TestSelfTimeAndUncovered(t *testing.T) {
	tr := &tracer{epoch: time.Unix(0, 0)}
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("op.cold", 0, "r", at(0), at(100))
	tr.add(spanSubmit, 1, "r", at(0), at(30))
	tr.add(spanJob, 1, "r", at(40), at(45))
	tr.add(spanRun, 1, "r", at(35), at(80)) // overlaps the poll
	tr.add(spanResult, 1, "r", at(90), at(95))
	sum, err := tr.summarize()
	if err != nil {
		t.Fatal(err)
	}
	// Children cover [0,30) ∪ [35,80) ∪ [90,95) = 80ms of the 100ms root.
	if sum.uncovered != 20*time.Millisecond || sum.rootTotal != 100*time.Millisecond || sum.roots != 1 {
		t.Fatalf("uncovered %v of %v over %d roots, want 20ms of 100ms over 1", sum.uncovered, sum.rootTotal, sum.roots)
	}
	if got := sum.self[spanRun]; got != 45*time.Millisecond {
		t.Fatalf("server.run self time %v, want 45ms", got)
	}
	out := map[string]float64{}
	sum.layerMetrics(out)
	if out["trace.unattributed_pct"] != 20 {
		t.Fatalf("unattributed %v%%, want 20%%", out["trace.unattributed_pct"])
	}
	id := tr.begin("op.open", 0, "")
	if _, err := tr.summarize(); err == nil {
		t.Fatal("an open span was not reported")
	}
	tr.end(id)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Fatalf("p90 %v, want 4.6", got)
	}
	if got := beyond(xs, 0.9); got != 1 {
		t.Fatalf("beyond p90 = %d, want 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestPlanIsSeededAndDistinct(t *testing.T) {
	a, b := &serveBench{}, &serveBench{}
	a.plan(3, 5*time.Second)
	b.plan(3, 5*time.Second)
	if !reflect.DeepEqual(a.schedule, b.schedule) || !reflect.DeepEqual(a.windows, b.windows) {
		t.Fatal("the same seed planned different schedules")
	}
	seen := map[window]bool{}
	for _, w := range a.windows {
		if seen[w] || w.t0 < 0 || w.t1 > preloadSteps || w.t1-w.t0 < minWindow {
			t.Fatalf("window %v repeated or outside the preloaded prefix", w)
		}
		seen[w] = true
	}
	for i := 1; i < len(a.schedule); i++ {
		if a.schedule[i].due < a.schedule[i-1].due {
			t.Fatal("schedule not in time order")
		}
	}
	c := &serveBench{}
	c.plan(4, 5*time.Second)
	if reflect.DeepEqual(a.windows, c.windows) {
		t.Fatal("different seeds planned the same windows")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness naming the
// same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEnd(newResult(), []float64{1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, the harness prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): harness prints %+v", m.Name, m.Unit, got)
		}
	}
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the harness prints %d", len(spec.PerLayer), len(perLayer))
	}
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s): harness unit %q", m.Name, m.Unit, u)
		}
	}
}

func TestPerLayerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range perLayer {
		if seen[m.name] || len(m.name) > 64 {
			t.Fatalf("per-layer metric %q repeated or too long", m.name)
		}
		seen[m.name] = true
	}
	if len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}
