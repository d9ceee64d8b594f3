package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/ordering"
)

// deadline bounds a whole run, so a hung job fails the run instead of
// overrunning the 180-second limit a run must end within.
const deadline = 165 * time.Second

// setupReps is how many times a run sets the system up; set-up time is
// their median, and the last instance serves the timed window.
const setupReps = 5

// runner holds one run's state.
type runner struct {
	w       *workload
	st      *stream
	ctx     context.Context
	outDir  string
	tr      *tracer // nil on untraced runs
	seedDir string
	dirSeq  int
	inv     map[int64]invariants // by input seed
	refs    map[int64][]float64  // fixed-seed input → first solve's values
}

func (r *runner) freshDataDir() string {
	r.dirSeq++
	return filepath.Join(r.outDir, fmt.Sprintf("data-%s-%d-%d", r.w.name, os.Getpid(), r.dirSeq))
}

// outcome is one job's fate in the timed window.
type outcome struct {
	job     job
	latency time.Duration // submit call start → verified result in hand
	done    time.Time     // when the verified result was in hand
	submit  time.Duration // the submit call of the job's request
	err     error         // nil = completed and verified
	res     *client.Result
	// Traced requests additionally fetch the job's status and count the
	// v2 JSON bytes of request and result.
	traced   bool
	status   *client.Status
	reqBytes int
	resBytes int
}

// drive runs closed-loop client c over its requests. On a traced run every
// other request is traced, offset by client, so traced and untraced jobs
// share the window and their latency difference is the tracing overhead.
func (r *runner) drive(c int, cl client.Client, reqs []request) []outcome {
	_, isHTTP := cl.(*client.HTTP)
	var outs []outcome
	for i, req := range reqs {
		var tr *tracer
		if (i+c)%2 == 0 {
			tr = r.tr
		}
		outs = append(outs, r.request(cl, req, tr, isHTTP)...)
	}
	return outs
}

// request submits one request, waits on its jobs in order and verifies
// each result.
func (r *runner) request(cl client.Client, req request, tr *tracer, isHTTP bool) []outcome {
	outs := make([]outcome, len(req))
	specs := make([]client.Spec, len(req))
	for k, j := range req {
		specs[k] = j.spec()
		outs[k] = outcome{job: j, traced: tr != nil}
	}
	root := tr.start("request", "", 0)
	defer root.end()
	t0 := time.Now()
	var handles []client.JobHandle
	var err error
	if len(specs) == 1 {
		sp := tr.start("client.Submit", "", root.id())
		var h client.JobHandle
		if h, err = cl.Submit(r.ctx, specs[0]); err == nil {
			handles = []client.JobHandle{h}
		}
		sp.end()
	} else {
		sp := tr.start("client.SubmitAll", "", root.id())
		handles, err = client.SubmitAll(r.ctx, cl, specs)
		sp.end()
	}
	submit := time.Since(t0)
	for k := range outs {
		outs[k].submit = submit
		if k >= len(handles) {
			outs[k].err = fmt.Errorf("submit: %w", err)
			continue
		}
		h := handles[k]
		sp := tr.start("client.Wait", h.ID(), root.id())
		res, werr := h.Wait(r.ctx)
		sp.end()
		sp = tr.start("check", h.ID(), root.id())
		if werr != nil {
			outs[k].err = werr
		} else {
			outs[k].res = res
			outs[k].err = r.verify(outs[k].job, res)
		}
		sp.end()
		outs[k].done = time.Now()
		outs[k].latency = outs[k].done.Sub(t0)
	}
	if tr == nil {
		return outs
	}
	for k, h := range handles {
		sp := tr.start("client.Status", h.ID(), root.id())
		st, err := h.Status(r.ctx)
		sp.end()
		if err == nil {
			outs[k].status = st
		}
		if isHTTP && outs[k].res != nil {
			b, _ := json.Marshal(outs[k].res) // a decoded Result always re-encodes
			outs[k].resBytes = len(b)
		}
	}
	if isHTTP {
		var body any = specs[0]
		if len(specs) > 1 {
			body = struct {
				Jobs []client.Spec `json:"jobs"`
			}{specs}
		}
		b, _ := json.Marshal(body) // plain structs always encode
		for k := range outs {
			outs[k].reqBytes = len(b) / len(specs)
		}
	}
	return outs
}

// verify checks a result against its input's invariants and, for a
// repeated input, bit-identity with the first solve.
func (r *runner) verify(j job, res *client.Result) error {
	if err := r.inv[j.seed].check(res); err != nil {
		return fmt.Errorf("job %s seed %d: %w", j.class.name, j.seed, err)
	}
	if ref, ok := r.refs[j.seed]; ok {
		if err := sameBits(res.Values, ref); err != nil {
			return fmt.Errorf("repeated input %s seed %d: %w", j.class.name, j.seed, err)
		}
	}
	return nil
}

// warmUp runs the warm-up request on a fresh instance and keeps the first
// solve of every fixed-seed input as the reference for later cache hits.
func (r *runner) warmUp(e *env) error {
	r.refs = nil
	outs := r.request(e.clients[0], r.st.warm, nil, false)
	refs := make(map[int64][]float64)
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
		if o.job.repeat {
			refs[o.job.seed] = o.res.Values
		}
	}
	r.refs = refs
	return nil
}

// window is what the timed window measured.
type window struct {
	outs    []outcome
	wall    time.Duration
	cpu     float64 // seconds
	rssPeak float64 // MiB, p99 of 10-ms samples
	before  *client.Metrics
	after   *client.Metrics
	cache   [2]ordering.SweepCacheCounters
	mem     [2]runtime.MemStats
	journal [2]int64
}

// timed runs every client's requests concurrently and measures the window.
func (r *runner) timed(e *env) (*window, error) {
	w := &window{}
	runtime.GC()
	var err error
	if w.before, err = e.clients[0].Metrics(r.ctx); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if e.dataDir != "" {
		if w.journal[0], err = topLevelBytes(e.dataDir); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&w.mem[0])
	w.cache[0] = ordering.SweepCacheStats()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(10 * time.Millisecond)
	start := time.Now()
	per := make([][]outcome, len(e.clients))
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = r.drive(c, e.clients[c], r.st.clients[c])
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	if w.rssPeak, err = rss.finish(); err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	w.cache[1] = ordering.SweepCacheStats()
	runtime.ReadMemStats(&w.mem[1])
	if e.dataDir != "" {
		if w.journal[1], err = topLevelBytes(e.dataDir); err != nil {
			return nil, err
		}
	}
	if w.after, err = e.clients[0].Metrics(r.ctx); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	for _, o := range per {
		w.outs = append(w.outs, o...)
	}
	return w, nil
}

// failed counts the window's jobs that errored, were refused or failed
// the output check.
func (w *window) failed() int {
	n := 0
	for _, o := range w.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latenciesMs lists every job's latency; a failed job misses every
// latency limit, so it counts as infinitely late.
func (w *window) latenciesMs() []float64 {
	xs := make([]float64, len(w.outs))
	for i, o := range w.outs {
		xs[i] = math.Inf(1)
		if o.err == nil {
			xs[i] = ms(o.latency)
		}
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
