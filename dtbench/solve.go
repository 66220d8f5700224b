package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// batch-cold: repeated cold decompositions of one video-like tensor far
// larger than the last-level cache, with one worker per CPU.
var (
	batchDims  = []int{256, 256, 256}
	batchRanks = []int{16, 16, 16}
)

// refit: repeated ALS solves over one approximation of a 4-order
// climate-like tensor, single-threaded, with the sweep count pinned.
var (
	refitDims  = []int{64, 48, 16, 60}
	refitRanks = []int{8, 8, 4, 8}
)

const (
	refitTol   = 1e-300
	refitIters = 20
)

// kernelCounter is one of the program's kernel counters, reported per
// solve in total and per phase.
type kernelCounter struct {
	name, unit string
	get        func(metrics.Counters) int64
}

var kernelCounters = []kernelCounter{
	{"mat.matmul_flops", "flop", func(c metrics.Counters) int64 { return c.MatmulFlops }},
	{"mat.qr_flops", "flop", func(c metrics.Counters) int64 { return c.QRFlops }},
	{"mat.matmul_calls", "count", func(c metrics.Counters) int64 { return c.MatmulCalls }},
	{"mat.svd_calls", "count", func(c metrics.Counters) int64 { return c.SVDCalls }},
	{"randsvd.calls", "count", func(c metrics.Counters) int64 { return c.RandSVDCalls }},
	{"randsvd.fallbacks", "count", func(c metrics.Counters) int64 { return c.RandSVDFallbacks }},
	{"kernelsel.slice_svds", "count", func(c metrics.Counters) int64 { return c.SliceSVDs }},
}

// phaseNames are the metric suffixes of the collector's three phases, in
// metrics.Phase order.
var phaseNames = []string{"approx", "init", "iter"}

// solveBench runs one of the two in-process solve workloads.
type solveBench struct {
	name string
	x    *tensor.Dense
	opts core.Options
	// ap is the approximation refit solves over; nil for batch-cold, whose
	// every solve starts from the raw tensor.
	ap *core.Approximation
	// col is attached in traced passes only.
	col *metrics.Collector

	ref     *core.Decomposition
	digests []digest
}

func setupBatchCold(seed int64, traced bool, _ time.Duration) (instance, error) {
	x := workload.VideoLike(batchDims[0], batchDims[1], batchDims[2], seed).X
	b := &solveBench{name: "batch-cold", x: x}
	b.opts = core.Config{Ranks: batchRanks}.Options()
	b.opts.Workers = runtime.NumCPU()
	if traced {
		b.col = metrics.New()
		b.opts.Metrics = b.col
	}
	return b, nil
}

func setupRefit(seed int64, traced bool, _ time.Duration) (instance, error) {
	x := workload.ClimateLike(refitDims[0], refitDims[1], refitDims[2], refitDims[3], seed).X
	b := &solveBench{name: "refit", x: x}
	b.opts = core.Config{Ranks: refitRanks, Tol: refitTol, MaxIters: refitIters}.Options()
	b.opts.Workers = 1
	if traced {
		b.col = metrics.New()
		b.opts.Metrics = b.col
	}
	ap, err := core.Approximate(x, b.opts)
	if err != nil {
		return nil, err
	}
	b.ap = ap
	return b, nil
}

func (b *solveBench) close() {}

// solve runs one solve call: core.Decompose for batch-cold (split into its
// two public calls when traced) and Approximation.Decompose for refit.
func (b *solveBench) solve(tr *tracer, root int) (*core.Decomposition, *core.Approximation, error) {
	ap := b.ap
	var approx time.Duration
	if ap == nil {
		if tr == nil {
			dec, err := core.Decompose(b.x, b.opts)
			return dec, nil, err
		}
		id := tr.begin(spanApproximate, root, "")
		t0 := time.Now()
		var err error
		ap, err = core.Approximate(b.x, b.opts)
		approx = time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	id := tr.begin(spanDecompose, root, "")
	t0 := time.Now()
	dec, err := ap.Decompose()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	st := dec.Stats
	tr.add(spanInit, id, "", t0, t0.Add(st.InitTime))
	tr.add(spanIter, id, "", t0.Add(st.InitTime), t0.Add(st.InitTime+st.IterTime))
	dec.Stats.ApproxTime = approx
	return dec, ap, nil
}

// counts is one solve's kernel activity per phase, plus its pool usage.
type counts struct {
	phase [3]metrics.Counters
	pool  metrics.PoolStats
}

// snapshot reads the collector's cumulative counters.
func (b *solveBench) snapshot() counts {
	var c counts
	rep := b.col.Report()
	for i := range c.phase {
		c.phase[i] = rep.Phases[i].Counters
	}
	if rep.Pool != nil {
		c.pool = *rep.Pool
	}
	return c
}

// since returns the activity of the solve that ran after prev was taken.
// batch-cold builds a fresh pool per solve, so its pool report already
// covers one solve; refit reuses the approximation's pool, whose counters
// accumulate.
func (c counts) since(prev counts, sharedPool bool) counts {
	var d counts
	for i := range d.phase {
		d.phase[i] = c.phase[i].Sub(prev.phase[i])
	}
	d.pool = c.pool
	if sharedPool {
		d.pool.Tasks -= prev.pool.Tasks
		d.pool.Regions -= prev.pool.Regions
		d.pool.BusyNanos -= prev.pool.BusyNanos
	}
	return d
}

// deterministic strips the timing from a count set, leaving what must
// repeat exactly from solve to solve.
func (c counts) deterministic() counts {
	c.pool.BusyNanos = 0
	return c
}

func (b *solveBench) measure(p *pass) error {
	res := p.res
	if b.ap != nil {
		// One untimed solve fills the approximation's scratch buffers and
		// gives the pool counters a baseline. It is not part of set-up, so
		// setup_s stays the cost of building the approximation.
		if _, err := b.ap.Decompose(); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
	}
	var prev, first counts
	if b.col != nil {
		prev = b.snapshot()
	}
	var busy, storage []float64
	heap := startHeapSampler()
	deadline := time.Now().Add(p.d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		a0 := allocatedBytes()
		root := p.tr.begin("op.solve", 0, fmt.Sprintf("solve-%d", n))
		t0 := time.Now()
		dec, ap, err := b.solve(p.tr, root)
		wall := time.Since(t0)
		p.tr.end(root)
		alloc := allocatedBytes() - a0
		res.attempted++
		if err != nil {
			res.fail("solve %d: %v", n, err)
			continue
		}
		d, err := digestOf(dec)
		if err != nil {
			return err
		}
		b.digests = append(b.digests, d)
		if b.ref == nil {
			b.ref = dec
		}
		res.add("solve_s", wall.Seconds())
		res.add("fit", dec.Fit)
		res.add("alloc_mb", float64(alloc)/(1<<20))
		st := dec.Stats
		res.add("approx_s", st.ApproxTime.Seconds())
		res.add("init_s", st.InitTime.Seconds())
		res.add("iter_s", st.IterTime.Seconds())
		res.add("iters", float64(st.Iters))
		if st.Iters > 0 {
			res.add("sweep_ms", st.IterTime.Seconds()*1e3/float64(st.Iters))
		}
		if ap != nil {
			storage = append(storage, float64(ap.StorageFloats()))
		}
		if b.col == nil {
			continue
		}
		cur := b.snapshot()
		c := cur.since(prev, b.ap != nil)
		prev = cur
		if n == 0 {
			first = c
		} else if c.deterministic() != first.deterministic() {
			res.fail("benchmark defect: solve %d counts %+v differ from solve 0 counts %+v", n, c.deterministic(), first.deterministic())
		}
		busy = append(busy, float64(c.pool.BusyNanos)/(float64(c.pool.Workers)*float64(wall.Nanoseconds())))
	}
	res.peakHeapMiB = heap.stopMiB()

	inBytes := float64(8 * len(b.x.Data()))
	res.env["input_bytes"] = inBytes
	if l3 := l3Bytes(); l3 > 0 {
		res.env["input_over_l3"] = inBytes / float64(l3)
	}
	res.env["workers"] = b.opts.Workers
	l := res.layer
	l["core.approx_s"] = median(res.samples["approx_s"])
	l["core.init_s"] = median(res.samples["init_s"])
	l["core.iter_s"] = median(res.samples["iter_s"])
	l["core.sweep_ms"] = median(res.samples["sweep_ms"])
	l["core.iters"] = median(res.samples["iters"])
	l["core.alloc_mb"] = median(res.samples["alloc_mb"])
	if b.col == nil {
		return nil
	}
	// An untraced batch-cold solve is one core.Decompose call, which does
	// not hand its approximation back.
	l["core.storage_mb"] = orZero(median(storage)) * 8 / (1 << 20)
	for _, kc := range kernelCounters {
		var total int64
		for i, ph := range phaseNames {
			v := kc.get(first.phase[i])
			l[kc.name+"."+ph] = float64(v)
			total += v
		}
		l[kc.name] = float64(total)
	}
	approx := first.phase[0]
	l["core.approx_flops_per_byte"] = float64(approx.MatmulFlops+approx.QRFlops) / inBytes
	l["pool.busy_frac"] = median(busy)
	l["pool.tasks"] = float64(first.pool.Tasks)
	return nil
}

// verify checks every solve against the first, the first against an
// independent single-worker solve, and the fit against the pinned table.
func (b *solveBench) verify(p *pass) error {
	if b.ref == nil {
		return nil
	}
	want := b.digests[0]
	for i := 1; i < len(b.digests); i++ {
		if d := b.digests[i]; d != want {
			p.res.fail("solve %d: result %s differs from solve 0 %s", i, d, want)
		}
	}
	opts := b.opts
	opts.Workers = 1
	opts.Metrics = nil
	ref, err := core.Decompose(b.x, opts)
	if err != nil {
		p.res.fail("reference solve: %v", err)
		return nil
	}
	if err := sameResult("solve 0 against the single-worker reference", ref, b.ref); err != nil {
		p.res.fail("%v", err)
	}
	if err := checkPinned(b.name, p.seed, ref.Fit); err != nil {
		p.res.fail("%v", err)
	}
	return nil
}
