package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rangeidx"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// serve-mixed inputs. Cold decompositions use mid-size tensors, at which
// upload, decode and digest cost about as much as the solve; the stream is
// small, so appends and stitched range queries are cheap, latency-bound
// requests.
var (
	coldDims    = []int{64, 48, 32}
	coldRanks   = []int{8, 8, 8}
	streamRanks = []int{6, 6, 6}
)

const (
	streamH, streamW = 48, 40
	chunkSteps       = 4
	preloadSteps     = 128
	minWindow        = 24 // above the range index's default direct-solve span of 16
	maxWindow        = 96
	coldBases        = 12
	// warmTensors is 1 so that resubmissions stay cache hits: cold and range
	// results enter the server's 64-entry result cache at about 80/s, so an
	// entry not resubmitted for about 0.8 s is evicted. At 6 resubmissions/s
	// of one tensor about 1% miss.
	warmTensors = 1
	// pollEvery is the fixed job-poll cadence, so latency measures the
	// server and not a backoff schedule. It is short against a cold job's
	// latency, so the median does not jump between multiples of it.
	pollEvery    = time.Millisecond
	verifyColds  = 4
	verifyRanges = 4
)

type opKind int

const (
	opCold opKind = iota
	opHit
	opAppend
	opRange
	numOpKinds
)

var opNames = [numOpKinds]string{"cold", "hit", "append", "range"}

// offeredRate is the open-loop arrival rate of each operation class, per
// second. Together they keep a 2-CPU host about half busy: the env line's
// cpu_busy_frac, the process's CPU time over the window divided by the
// window times nproc, reads 0.40–0.63 on a 2-vCPU x86 VM.
var offeredRate = [numOpKinds]float64{opCold: 22, opHit: 6, opAppend: 5, opRange: 60}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the start of the measured window
	kind opKind
	idx  int // cold tensor number, warm tensor, append number or window
}

type window struct{ t0, t1 int }

// opRecord is what one request observed.
type opRecord struct {
	kind      opKind
	idx       int
	latency   time.Duration
	err       error
	shed      bool
	digest    digest
	fit       float64
	cacheHit  bool
	polled    bool
	ran       bool // the job record has its own queue wait and run
	polls     int
	submit    time.Duration
	result    time.Duration
	queueWait time.Duration
	run       time.Duration
}

type serveBench struct {
	srv       *server.Server
	hs        *http.Server
	serveDone chan error
	conns     atomic.Int64
	transport *http.Transport
	cl        *repro.Client
	base      string

	bases      []*tensor.Dense
	warm       []*tensor.Dense
	warmDigest []digest
	streamID   string
	streamData []float64 // stream steps, step-major
	schedule   []arrival
	windows    []window
	appends    int

	mu      sync.Mutex
	records []opRecord
}

var (
	coldCfg   = core.Config{Ranks: coldRanks}
	streamCfg = core.Config{Ranks: streamRanks}
)

func setupServeMixed(seed int64, _ bool, d time.Duration) (_ instance, err error) {
	b := &serveBench{serveDone: make(chan error, 1)}
	// The zero server.Config is the daemon's default configuration.
	b.srv, err = server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Drain(context.Background())
		return nil, err
	}
	b.hs = &http.Server{Handler: b.srv.Handler(), ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			b.conns.Add(1)
		}
	}}
	go func() { b.serveDone <- b.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	b.base = "http://" + ln.Addr().String()
	nproc := runtime.NumCPU()
	b.transport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	b.cl = repro.NewClient(b.base)
	b.cl.HTTPClient = &http.Client{Transport: b.transport}

	for k := 0; k < coldBases; k++ {
		b.bases = append(b.bases, workload.VideoLike(coldDims[0], coldDims[1], coldDims[2], seed*1000+int64(k)).X)
	}
	b.plan(seed, d)
	steps := preloadSteps + b.appends*chunkSteps
	b.streamData = workload.VideoLike(streamH, streamW, steps, seed*1000+900).X.Data()

	ctx := context.Background()
	for k := 0; k < warmTensors; k++ {
		x := workload.VideoLike(coldDims[0], coldDims[1], coldDims[2], seed*1000+500+int64(k)).X
		rec := b.submit(ctx, nil, 0, fmt.Sprintf("dtbench-warm-%d", k), x)
		if rec.err != nil {
			return nil, fmt.Errorf("warming the cache: %w", rec.err)
		}
		b.warm = append(b.warm, x)
		b.warmDigest = append(b.warmDigest, rec.digest)
	}
	st, err := b.cl.CreateStream(ctx, streamCfg)
	if err != nil {
		return nil, fmt.Errorf("creating the stream: %w", err)
	}
	b.streamID = st.StreamID
	for t := 0; t < preloadSteps; t += chunkSteps {
		if _, err := b.cl.Append(ctx, b.streamID, b.chunk(t)); err != nil {
			return nil, fmt.Errorf("preloading the stream: %w", err)
		}
	}
	return b, nil
}

// plan draws the open-loop schedule: for each operation class, a Poisson
// process conditioned on its expected count — rate × d arrival times drawn
// uniformly over the window — so every seed offers the same amount of work.
// Each class has its own generator so the classes do not perturb one another.
func (b *serveBench) plan(seed int64, d time.Duration) {
	var counts [numOpKinds]int
	seen := make(map[window]bool)
	for k := opKind(0); k < numOpKinds; k++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		times := make([]float64, int(math.Round(offeredRate[k]*d.Seconds())))
		for i := range times {
			times[i] = rng.Float64() * d.Seconds()
		}
		sort.Float64s(times)
		for _, t := range times {
			a := arrival{due: time.Duration(t * float64(time.Second)), kind: k, idx: counts[k]}
			switch k {
			case opHit:
				a.idx = rng.Intn(warmTensors)
			case opRange:
				// Distinct overlapping windows inside the preloaded prefix, so
				// per-query work does not depend on how far appends have got.
				for {
					span := minWindow + rng.Intn(maxWindow-minWindow+1)
					t0 := rng.Intn(preloadSteps - span + 1)
					w := window{t0, t0 + span}
					if !seen[w] {
						seen[w] = true
						b.windows = append(b.windows, w)
						break
					}
				}
			}
			counts[k]++
			b.schedule = append(b.schedule, a)
		}
	}
	b.appends = counts[opAppend]
	sort.SliceStable(b.schedule, func(i, j int) bool { return b.schedule[i].due < b.schedule[j].due })
}

// coldTensor returns the i-th distinct cold input: a base tensor scaled by
// a factor unique to i, so every cold submission misses the cache.
func (b *serveBench) coldTensor(i int) *tensor.Dense {
	src := b.bases[i%coldBases].Data()
	s := 1 + 1e-3*float64(i/coldBases+1)
	data := make([]float64, len(src))
	for j, v := range src {
		data[j] = v * s
	}
	return tensor.NewFromData(data, coldDims...)
}

// chunk returns stream steps [t, t+chunkSteps).
func (b *serveBench) chunk(t int) *tensor.Dense {
	n := streamH * streamW
	data := append([]float64(nil), b.streamData[t*n:(t+chunkSteps)*n]...)
	return tensor.NewFromData(data, streamH, streamW, chunkSteps)
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.srv.Drain(ctx)
	if b.hs != nil {
		if err := b.hs.Shutdown(ctx); err != nil {
			b.hs.Close()
		}
		<-b.serveDone
	}
	if b.transport != nil {
		b.transport.CloseIdleConnections()
	}
}

// metricz is the part of GET /metricz the benchmark reads.
type metricz struct {
	Kernel metrics.Counters `json:"dtucker_metrics"`
	Server struct {
		Rejected  int64 `json:"jobs_rejected"`
		Coalesced int64 `json:"jobs_coalesced"`
	} `json:"dtuckerd"`
}

func (b *serveBench) scrape(ctx context.Context, tr *tracer) (metricz, error) {
	var m metricz
	id := tr.begin(spanMetricz, 0, "")
	defer tr.end(id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/metricz", nil)
	if err != nil {
		return m, err
	}
	resp, err := b.cl.HTTPClient.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metricz: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (b *serveBench) measure(p *pass) error {
	// A request still open a minute after the window fails instead of
	// holding the run past its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), p.d+time.Minute)
	defer cancel()
	before, err := b.scrape(ctx, p.tr)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	// The single writer applies appends in schedule order; the buffer holds
	// every append of the pass.
	appendQ := make(chan arrival, b.appends)
	cpu0, wall0 := processCPU(), time.Now()
	start := wall0.Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range appendQ {
			b.record(b.doAppend(ctx, p.tr, start.Add(a.due), a))
		}
	}()
	var late time.Duration
	for _, a := range b.schedule {
		var x *tensor.Dense
		switch a.kind {
		case opCold:
			x = b.coldTensor(a.idx) // prepared before the due time
		case opHit:
			x = b.warm[a.idx]
		}
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		late = max(late, time.Since(due))
		if a.kind == opAppend {
			appendQ <- a
			continue
		}
		wg.Add(1)
		go func(a arrival, x *tensor.Dense) {
			defer wg.Done()
			b.record(b.do(ctx, p.tr, due, a, x))
		}(a, x)
	}
	close(appendQ)
	wg.Wait()
	window := time.Since(start)
	// The share of the host's CPUs the process, client and server together,
	// kept busy over the window.
	p.res.env["cpu_busy_frac"] = (processCPU() - cpu0).Seconds() / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
	p.res.peakHeapMiB = heap.stopMiB()
	after, err := b.scrape(ctx, p.tr)
	if err != nil {
		return err
	}
	b.summarize(p, before, after, late, window)
	return nil
}

func (b *serveBench) record(r opRecord) {
	b.mu.Lock()
	b.records = append(b.records, r)
	b.mu.Unlock()
}

// do runs one decompose or range request, from its due time to the decoded
// result in hand.
func (b *serveBench) do(ctx context.Context, tr *tracer, due time.Time, a arrival, x *tensor.Dense) opRecord {
	rid := fmt.Sprintf("dtbench-%s-%d", opNames[a.kind], a.idx)
	root := tr.begin("op."+opNames[a.kind], 0, rid)
	defer tr.end(root)
	var rec opRecord
	if a.kind == opRange {
		rec = b.query(ctx, tr, root, rid, b.windows[a.idx])
	} else {
		rec = b.submit(ctx, tr, root, rid, x)
	}
	rec.kind, rec.idx = a.kind, a.idx
	rec.latency = time.Since(due)
	return rec
}

// submit posts one decomposition and waits for its result.
func (b *serveBench) submit(ctx context.Context, tr *tracer, root int, rid string, x *tensor.Dense) opRecord {
	return b.request(ctx, tr, root, rid, spanSubmit, func() (*repro.SubmitResponse, error) {
		return b.cl.Submit(ctx, x, coldCfg, &repro.SubmitOptions{RequestID: rid})
	})
}

// query submits one range query and waits for its result.
func (b *serveBench) query(ctx context.Context, tr *tracer, root int, rid string, w window) opRecord {
	return b.request(ctx, tr, root, rid, spanRange, func() (*repro.SubmitResponse, error) {
		return b.cl.Range(ctx, b.streamID, w.t0, w.t1, &repro.SubmitOptions{RequestID: rid})
	})
}

// request times one submitting call under the span name, then waits for
// the job it created.
func (b *serveBench) request(ctx context.Context, tr *tracer, root int, rid, name string, call func() (*repro.SubmitResponse, error)) opRecord {
	var rec opRecord
	id := tr.begin(name, root, rid)
	t0 := time.Now()
	receipt, err := call()
	rec.submit = time.Since(t0)
	tr.end(id)
	if err != nil {
		rec.err = err
		var apiErr *repro.APIError
		rec.shed = errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests
		return rec
	}
	b.finish(ctx, tr, root, rid, receipt, &rec)
	return rec
}

// finish polls an accepted job at the fixed cadence until it is done, then
// fetches and digests its result.
func (b *serveBench) finish(ctx context.Context, tr *tracer, root int, rid string, receipt *repro.SubmitResponse, rec *opRecord) {
	rec.cacheHit = receipt.CacheHit
	if receipt.State != server.StateDone {
		rec.polled = true
		for {
			time.Sleep(pollEvery)
			id := tr.begin(spanJob, root, rid)
			st, err := b.cl.Job(ctx, receipt.JobID)
			tr.end(id)
			rec.polls++
			if err != nil {
				rec.err = err
				return
			}
			if st.State == server.StateFailed || st.State == server.StateCancelled {
				rec.err = fmt.Errorf("job %s %s: %v", st.ID, st.State, st.Error)
				return
			}
			if st.State == server.StateDone {
				// A coalesced follower never starts: its leader's run
				// finishes it, so it has no queue wait or run of its own.
				if st.StartedMs > 0 {
					created, started, finished := time.UnixMilli(st.CreatedMs), time.UnixMilli(st.StartedMs), time.UnixMilli(st.FinishedMs)
					rec.ran = true
					rec.queueWait, rec.run = started.Sub(created), finished.Sub(started)
					tr.add(spanQueueWait, root, rid, created, started)
					tr.add(spanRun, root, rid, started, finished)
				}
				break
			}
		}
	}
	id := tr.begin(spanResult, root, rid)
	t0 := time.Now()
	dec, err := b.cl.Result(ctx, receipt.JobID)
	rec.result = time.Since(t0)
	tr.end(id)
	if err != nil {
		rec.err = err
		return
	}
	rec.fit = dec.Fit
	rec.digest, rec.err = digestOf(dec)
}

// doAppend appends one chunk and checks the stream grew by it.
func (b *serveBench) doAppend(ctx context.Context, tr *tracer, due time.Time, a arrival) opRecord {
	rec := opRecord{kind: opAppend, idx: a.idx}
	rid := fmt.Sprintf("dtbench-append-%d", a.idx)
	root := tr.begin("op.append", 0, rid)
	defer tr.end(root)
	x := b.chunk(preloadSteps + a.idx*chunkSteps)
	id := tr.begin(spanAppend, root, rid)
	st, err := b.cl.Append(ctx, b.streamID, x)
	tr.end(id)
	rec.latency = time.Since(due)
	switch {
	case err != nil:
		rec.err = err
	case st.Len != preloadSteps+(a.idx+1)*chunkSteps:
		rec.err = fmt.Errorf("append %d: stream length %d, want %d", a.idx, st.Len, preloadSteps+(a.idx+1)*chunkSteps)
	}
	return rec
}

// summarize folds the request records into samples and per-layer metrics.
func (b *serveBench) summarize(p *pass, before, after metricz, late, window time.Duration) {
	res := p.res
	var lat [numOpKinds][]float64
	var submit, result, queue, run, polls, rangeFit []float64
	hits, hitOps := 0, 0
	shed := 0
	for _, r := range b.records {
		res.attempted++
		if r.err != nil {
			if r.shed {
				shed++
			}
			res.fail("%s %d: %v", opNames[r.kind], r.idx, r.err)
			continue
		}
		ms := r.latency.Seconds() * 1e3
		lat[r.kind] = append(lat[r.kind], ms)
		switch r.kind {
		case opCold:
			res.add("solve_s", r.latency.Seconds())
			res.add("fit", r.fit)
		case opHit:
			hitOps++
			if r.cacheHit {
				hits++
			}
		case opRange:
			rangeFit = append(rangeFit, r.fit)
		}
		if r.kind == opCold || r.kind == opHit {
			submit = append(submit, r.submit.Seconds()*1e3)
		}
		if r.kind != opAppend {
			result = append(result, r.result.Seconds()*1e3)
		}
		if r.polled {
			polls = append(polls, float64(r.polls))
		}
		if r.ran {
			queue = append(queue, r.queueWait.Seconds()*1e3)
			run = append(run, r.run.Seconds()*1e3)
		}
	}
	l := res.layer
	l["decompose_cold_ms_p50"] = median(lat[opCold])
	l["decompose_cold_ms_p90"] = quantile(lat[opCold], 0.9)
	l["decompose_hit_ms_p50"] = median(lat[opHit])
	l["range_ms_p50"] = median(lat[opRange])
	l["range_ms_p90"] = quantile(lat[opRange], 0.9)
	l["range_fit_p50"] = median(rangeFit)
	l["append_ms_p50"] = median(lat[opAppend])
	l["client.submit_ms"] = median(submit)
	l["client.result_ms"] = median(result)
	l["client.polls"] = mean(polls)
	l["server.queue_wait_ms"] = median(queue)
	l["server.run_ms"] = median(run)
	l["server.shed"] = float64(after.Server.Rejected - before.Server.Rejected)
	l["server.coalesced"] = float64(after.Server.Coalesced - before.Server.Coalesced)
	if hitOps > 0 {
		l["server.cache_hit_share"] = float64(hits) / float64(hitOps)
	}
	k := after.Kernel.Sub(before.Kernel)
	if n := len(lat[opRange]); n > 0 {
		l["rangeidx.stitch_share"] = float64(k.RangeStitches) / float64(n)
	}
	l["rangeidx.node_hits"] = float64(k.RangeNodeHits)
	l["rangeidx.node_builds"] = float64(k.RangeNodeBuilds)
	l["gen.late_ms_max"] = late.Seconds() * 1e3

	offered, achieved := map[string]float64{}, map[string]float64{}
	samples, tail := map[string]int{}, map[string]int{}
	total := 0.0
	for kind := opKind(0); kind < numOpKinds; kind++ {
		name := opNames[kind]
		offered[name] = offeredRate[kind]
		total += offeredRate[kind]
		achieved[name] = float64(len(lat[kind])) / window.Seconds()
		samples[name] = len(lat[kind])
		tail[name] = beyond(lat[kind], 0.9)
	}
	offered["total"] = total
	achieved["total"] = float64(res.attempted-res.failed) / window.Seconds()
	res.env["offered_per_s"] = offered
	res.env["achieved_per_s"] = achieved
	res.env["latency_samples"] = samples
	res.env["samples_beyond_p90"] = tail
	res.env["shed_responses"] = shed
	res.env["connections"] = b.conns.Load()
	res.env["max_connections"] = runtime.NumCPU()
	res.env["poll_every_ms"] = pollEvery.Seconds() * 1e3
	res.env["cold_input_bytes"] = 8 * coldDims[0] * coldDims[1] * coldDims[2]
}

// verify checks served results against in-process computation, outside
// the timed window.
func (b *serveBench) verify(p *pass) error {
	res := p.res
	rng := rand.New(rand.NewSource(p.seed*31 + 7))
	ctx := context.Background()
	opts := coldCfg.Options()
	opts.Workers = runtime.NumCPU()

	// Every cache hit replays the result its tensor got when it was cold.
	var colds, ranges []opRecord
	for _, r := range b.records {
		if r.err != nil {
			continue
		}
		switch r.kind {
		case opHit:
			if r.digest != b.warmDigest[r.idx] {
				res.fail("hit %d: result %s differs from its cold result %s", r.idx, r.digest, b.warmDigest[r.idx])
			}
		case opCold:
			colds = append(colds, r)
		case opRange:
			if math.IsNaN(r.fit) || r.fit < rangeFitFloor || r.fit > 1 {
				res.fail("range %v: fit %v outside [%v, 1]", b.windows[r.idx], r.fit, rangeFitFloor)
				continue
			}
			ranges = append(ranges, r)
		}
	}
	// The warm results themselves, and a seeded sample of cold results, are
	// bit-identical to in-process decompositions of the same tensors.
	for k, x := range b.warm {
		if err := checkLocal(fmt.Sprintf("warm %d", k), x, opts, b.warmDigest[k]); err != nil {
			res.fail("%v", err)
		}
	}
	rng.Shuffle(len(colds), func(i, j int) { colds[i], colds[j] = colds[j], colds[i] })
	for _, r := range colds[:min(verifyColds, len(colds))] {
		if err := checkLocal(fmt.Sprintf("cold %d", r.idx), b.coldTensor(r.idx), opts, r.digest); err != nil {
			res.fail("%v", err)
		}
	}
	// A seeded sample of range answers is bit-identical to an in-process
	// range index over the same preloaded chunks.
	rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
	ranges = ranges[:min(verifyRanges, len(ranges))]
	if len(ranges) == 0 {
		return nil
	}
	sopts := streamCfg.Options()
	sopts.Workers = runtime.NumCPU()
	st := core.NewStream(sopts)
	ix := rangeidx.New(st, rangeidx.Config{})
	for t := 0; t < preloadSteps; t += chunkSteps {
		if err := st.Append(b.chunk(t)); err != nil {
			return fmt.Errorf("replica stream: %w", err)
		}
		if err := ix.Advance(ctx); err != nil {
			return fmt.Errorf("replica index: %w", err)
		}
	}
	for _, r := range ranges {
		w := b.windows[r.idx]
		dec, _, err := ix.Query(ctx, w.t0, w.t1)
		if err != nil {
			return fmt.Errorf("replica query %v: %w", w, err)
		}
		want, err := digestOf(dec)
		if err != nil {
			return err
		}
		if want != r.digest {
			res.fail("range %v: served result %s differs from in-process %s", w, r.digest, want)
		}
	}
	return nil
}

// rangeFitFloor is the stitched-fit floor of the default server
// configuration (server.Config.RangeMinFit: 0, no quality fallback).
const rangeFitFloor = 0.0

// checkLocal compares a served result with an in-process decomposition of
// the same tensor.
func checkLocal(what string, x *tensor.Dense, opts core.Options, served digest) error {
	dec, err := core.Decompose(x, opts)
	if err != nil {
		return fmt.Errorf("%s: in-process solve: %w", what, err)
	}
	want, err := digestOf(dec)
	if err != nil {
		return err
	}
	if want != served {
		return fmt.Errorf("%s: served result %s differs from in-process %s", what, served, want)
	}
	return nil
}
