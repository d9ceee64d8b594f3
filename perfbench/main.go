// Command perfbench is the repository's benchmark: it drives one workload
// through the public client, service, HTTP and store layers, checks every
// result, and prints every metric by name with its unit. The last line of
// its standard output is one JSON object:
//
//	{"correct": true, "attempted": 150, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans around each public call it makes, times single
// layers directly, and reports the per-layer metrics instead.
//
// Run it from the module root through its build script:
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
//
// README.md next to this file lists the workloads, the metrics and the
// layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// jobs, when positive, replaces the job count --seconds derives.
	jobs   int
	outDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: solve-large, serve-small or serve-durable")
	fs.Int64Var(&o.seed, "seed", 1, "seed the job stream is derived from")
	fs.IntVar(&o.seconds, "seconds", 30, "nominal run length; sets the fixed job count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&o.jobs, "jobs", 0, "timed job count (0 = derived from --seconds)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for data, spans and probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is a run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the metrics the result line carries
	lines     []string // human-readable lines printed before it
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	m := make(map[string]jsonMetric, len(r.metrics))
	for _, x := range r.metrics {
		v := x.value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64 // a percentile reaching a failed job: misses every limit
		}
		m[x.name] = jsonMetric{Value: v, Unit: x.unit}
	}
	return jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runWorkload performs one run: input generation, set-up (several times),
// the timed window and, on a traced run, the layer probes.
func runWorkload(o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.outDir, 0o777); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	jobs := o.jobs
	if jobs <= 0 {
		jobs = w.jobCount(o.seconds)
	}
	r := &runner{w: w, st: w.newStream(o.seed, jobs), ctx: ctx, outDir: o.outDir}
	if o.trace {
		r.tr = newTracer()
	}
	host := readHost(o.outDir)
	rep := &report{}
	hostJSON, _ := json.Marshal(host) // plain struct always encodes
	rep.printf("perfbench: workload=%s seed=%d clients=%d trace=%v", w.name, o.seed, w.clients, o.trace)
	rep.printf("host: %s", hostJSON)

	// Inputs: each job's invariants come from regenerating its matrix.
	r.inv = make(map[int64]invariants)
	addInv := func(j job) {
		if _, ok := r.inv[j.seed]; !ok {
			r.inv[j.seed] = inputInvariants(j.class.n, j.seed)
		}
	}
	for _, j := range r.st.warm {
		addInv(j)
	}
	for _, reqs := range r.st.clients {
		for _, req := range reqs {
			for _, j := range req {
				addInv(j)
			}
		}
	}
	if w.seedJobs > 0 {
		r.seedDir = r.freshDataDir()
		defer os.RemoveAll(r.seedDir)
		if err := seedJournal(ctx, r.seedDir, r.st.seed); err != nil {
			return nil, err
		}
	}

	// Set-up: construction, tuning, journal replay and the warm-up pass,
	// setupReps times; the median is set-up time.
	var e *env
	var setups, recovers, opens, searches []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = w.setup(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := r.warmUp(e); err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, (time.Since(t0) - e.staging).Seconds())
		recovers = append(recovers, ms(e.recover))
		opens = append(opens, ms(e.open))
		searches = append(searches, ms(e.searchTime))
	}
	defer e.close()

	win, err := r.timed(e)
	if err != nil {
		return nil, err
	}
	rep.attempted = len(win.outs)
	rep.failed = win.failed()
	rep.correct = rep.failed == 0
	ok := rep.attempted - rep.failed
	lat := win.latenciesMs()
	perJob := float64(ok)
	if ok == 0 {
		perJob = float64(rep.attempted)
	}
	e2e := []metric{
		{"setup_s", median(setups), "s"},
		{"throughput_jobs_s", float64(ok) / win.wall.Seconds(), "jobs/s"},
		{"latency_p50_ms", percentile(lat, 0.5), "ms"},
		{"latency_p90_ms", percentile(lat, 0.9), "ms"},
		{"cpu_ms_per_job", win.cpu * 1000 / perJob, "ms"},
		{"rss_peak_mb", win.rssPeak, "MiB"},
	}
	rep.printf("jobs: %d attempted, %d failed, %d latency samples, timed wall %.3f s", rep.attempted, rep.failed, len(lat), win.wall.Seconds())
	shown := 0
	for _, o := range win.outs {
		if o.err != nil && shown < 5 {
			rep.printf("FAILED: %v", o.err)
			shown++
		}
	}
	rep.printf("setup_s runs: %s", joinFloats(setups))
	for _, m := range e2e {
		rep.printf("%-28s %14.4f %s", m.name, m.value, m.unit)
	}
	if !o.trace {
		rep.metrics = e2e
		return rep, nil
	}

	layers, err := r.layerMetrics(e, win, recovers, opens, searches)
	if err != nil {
		return nil, err
	}
	rep.metrics = layers
	for _, m := range layers {
		rep.printf("%-36s %14.4f %s", m.name, m.value, m.unit)
	}
	for _, s := range r.tr.summary() {
		rep.printf("span %-24s n=%-6d p50 %.3f ms  self p50 %.3f ms", s.Name, s.Count, s.P50Ms, s.SelfP50Ms)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := r.tr.write(path); err != nil {
		return nil, err
	}
	rep.printf("spans: %s", path)
	return rep, nil
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
