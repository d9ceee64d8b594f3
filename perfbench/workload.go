package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tuner"
)

// jobClass is one kind of job a workload submits.
type jobClass struct {
	name    string
	n, dim  int
	backend string // "" = the service's auto-selection
	// perRequest is how many jobs of the class each request carries.
	perRequest int
	// fixedSeed, when non-zero, makes the first job of the class in every
	// request repeat that input, so the result cache serves it.
	fixedSeed int64
}

// workload is one traffic mix. Load is closed-loop: each of clients
// goroutines sends its next request only after every job of the previous
// one came back verified.
type workload struct {
	name    string
	clients int
	classes []jobClass
	// rate is the nominal jobs/s that sizes a run: a run of s seconds does
	// max(minJobs, s·rate) jobs, a fixed count for a given s, so slower
	// code takes longer instead of doing less.
	rate float64
	// seedJobs is the number of finished jobs journaled before set-up, so
	// set-up replays them (durable workload only).
	seedJobs int
	setup    func(r *runner) (*env, error)
}

// minJobs keeps at least ten latency samples beyond p90.
const minJobs = 100

var workloads = []*workload{
	{
		name:    "solve-large",
		clients: 1,
		classes: []jobClass{{name: "large", n: 384, dim: 3, perRequest: 1}},
		rate:    5,
		setup:   setupSolveLarge,
	},
	{
		name:    "serve-small",
		clients: 2,
		classes: []jobClass{
			{name: "lane", n: 32, dim: 2, perRequest: 12, fixedSeed: 7},
			{name: "model", n: 48, dim: 3, backend: service.BackendEmulated, perRequest: 4, fixedSeed: 11},
		},
		rate:  350,
		setup: setupServeSmall,
	},
	{
		name:     "serve-durable",
		clients:  2,
		classes:  []jobClass{{name: "durable", n: 96, dim: 2, perRequest: 1}},
		rate:     60,
		seedJobs: 64,
		setup:    setupServeDurable,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// job is one submission of the stream.
type job struct {
	class  *jobClass
	seed   int64
	repeat bool // input is the class's fixed seed
}

func (j job) spec() client.Spec {
	return client.Spec{
		Label:   j.class.name,
		Random:  &client.RandomSpec{N: j.class.n, Seed: j.seed},
		Dim:     j.class.dim,
		Backend: j.class.backend,
	}
}

// request is one submit call: a single job, or a batch for SubmitAll.
type request []job

// stream is a run's whole input, derived from the seed alone: the warm-up
// request, the journal-seeding jobs, and each client's timed requests.
type stream struct {
	warm    request
	seed    []job
	clients [][]request
}

// jobsPerRequest is the size of each of the workload's requests.
func (w *workload) jobsPerRequest() int {
	k := 0
	for _, c := range w.classes {
		k += c.perRequest
	}
	return k
}

// jobCount is the fixed number of timed jobs of a run of the given length.
func (w *workload) jobCount(seconds int) int {
	n := int(math.Ceil(float64(seconds) * w.rate))
	if n < minJobs {
		n = minJobs
	}
	return n
}

// newStream builds the job stream of a run of at least jobs timed jobs.
// Distinct inputs draw consecutive seeds above 2^32 from a seeded base, so
// they never collide with each other or with the fixed seeds.
func (w *workload) newStream(seed int64, jobs int) *stream {
	rng := rand.New(rand.NewSource(seed))
	next := int64(1)<<32 + rng.Int63n(int64(1)<<40)
	mkRequest := func() request {
		var req request
		for ci := range w.classes {
			c := &w.classes[ci]
			for k := 0; k < c.perRequest; k++ {
				if k == 0 && c.fixedSeed != 0 {
					req = append(req, job{class: c, seed: c.fixedSeed, repeat: true})
					continue
				}
				req = append(req, job{class: c, seed: next})
				next++
			}
		}
		return req
	}
	st := &stream{warm: mkRequest(), clients: make([][]request, w.clients)}
	for i := 0; i < w.seedJobs; i++ {
		st.seed = append(st.seed, mkRequest()...)
	}
	per := w.jobsPerRequest()
	for i := 0; i < (jobs+per-1)/per; i++ {
		c := i % w.clients
		st.clients[c] = append(st.clients[c], mkRequest())
	}
	return st
}

// env is one set-up instance of the system under test.
type env struct {
	// clients holds one client per load goroutine.
	clients []client.Client
	// dataDir is the durable store's directory ("" when in memory).
	dataDir string
	// recover is the service.New time; open the store.Open time.
	recover, open time.Duration
	// search is the tuner search of the tuned registry, if any.
	search     *tuner.Report
	searchTime time.Duration
	// staging is time setup spent preparing inputs (copying the seeded
	// journal), which set-up time excludes.
	staging time.Duration
	close   func()
}

// setupSolveLarge starts an in-memory Local client with the result cache
// off; n=384 auto-selects the multicore backend.
func setupSolveLarge(r *runner) (*env, error) {
	sp := r.tr.start("client.NewLocal", "", 0)
	t0 := time.Now()
	l, err := client.NewLocal(client.LocalConfig{CacheCap: -1})
	rec := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &env{clients: []client.Client{l}, recover: rec, close: func() { l.Close() }}, nil
}

// setupServeSmall tunes the paper-model shape, then serves a lane-enabled
// service with the default result cache over HTTP.
func setupServeSmall(r *runner) (*env, error) {
	model := &r.w.classes[1] // the paper-model class
	sp := r.tr.start("tuner.Search", "", 0)
	t0 := time.Now()
	rep, err := tuner.Search(tuner.Shape{N: model.n, Dim: model.dim}, tuner.Params{}, tuner.Options{})
	searchTime := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("tuner search: %w", err)
	}
	reg := tuner.NewRegistry()
	reg.Install(rep.Winner)
	sp = r.tr.start("service.New", "", 0)
	t1 := time.Now()
	svc := service.New(service.Config{LaneWidth: laneWidth, Tuner: reg})
	rec := time.Since(t1)
	sp.end()
	e := &env{recover: rec, search: rep, searchTime: searchTime}
	return serveHTTP(e, svc, r.w.clients, func() {}), nil
}

// laneWidth is serve-small's batched-lane width.
const laneWidth = 8

// setupServeDurable reopens a copy of the seeded journal — set-up is the
// recovery replay — and serves it over HTTP with the cache off and a
// checkpoint every sweep.
func setupServeDurable(r *runner) (*env, error) {
	t := time.Now()
	dir := r.freshDataDir()
	if err := copyDir(r.seedDir, dir); err != nil {
		return nil, err
	}
	staging := time.Since(t)
	sp := r.tr.start("store.Open", "", 0)
	t0 := time.Now()
	st, err := store.Open(dir)
	open := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = r.tr.start("service.New", "", 0)
	t1 := time.Now()
	svc := service.New(service.Config{Store: st, CacheCap: -1})
	rec := time.Since(t1)
	sp.end()
	e := &env{dataDir: dir, recover: rec, open: open, staging: staging}
	return serveHTTP(e, svc, r.w.clients, func() {
		st.Close()
		os.RemoveAll(dir)
	}), nil
}

// serveHTTP mounts svc on an in-process HTTP server and gives each load
// client its own connection pool.
func serveHTTP(e *env, svc *service.Service, clients int, after func()) *env {
	srv := httptest.NewServer(httpapi.NewHandler(svc))
	for i := 0; i < clients; i++ {
		c, _ := client.NewHTTP(srv.URL) // a well-formed httptest URL never fails to parse
		e.clients = append(e.clients, c)
	}
	e.close = func() {
		for _, c := range e.clients {
			c.Close()
		}
		srv.Close()
		svc.Close()
		after()
	}
	return e
}

// seedJournal journals the stream's seeding jobs as finished jobs, through
// a durable Local client with the durable workload's settings.
func seedJournal(ctx context.Context, dir string, jobs []job) error {
	l, err := client.NewLocal(client.LocalConfig{DataDir: dir, CacheCap: -1})
	if err != nil {
		return err
	}
	defer l.Close()
	specs := make([]client.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec()
	}
	hs, err := client.SubmitAll(ctx, l, specs)
	if err != nil {
		return fmt.Errorf("seed journal: %w", err)
	}
	for _, h := range hs {
		if _, err := h.Wait(ctx); err != nil {
			return fmt.Errorf("seed journal: %w", err)
		}
	}
	return nil
}

// copyDir copies the regular files of src (recursively) into dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}

// topLevelBytes sums the sizes of dir's top-level files: the journal and
// the tuned-schedule log, not the checkpoint snapshots.
func topLevelBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
