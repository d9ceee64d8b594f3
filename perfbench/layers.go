package main

import (
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// Probe repetitions: each layer probe reports the median of these.
const (
	engineReps = 5
	kernelReps = 15
	storeReps  = 10
)

// layerMetrics derives the per-layer metrics of a traced run from the
// window's results, statuses and service counters, plus the layer probes.
// The count each ratio divides by is reported beside it: bench.jobs,
// bench.traced_jobs, service.jobs_completed, engine.fresh_jobs and so on.
func (r *runner) layerMetrics(e *env, win *window, recovers, opens, searches []float64) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	perJob := func(v float64, jobs int) float64 {
		if jobs == 0 {
			return 0
		}
		return v / float64(jobs)
	}

	var ok, traced, untraced, fresh []outcome
	for _, o := range win.outs {
		if o.err != nil {
			continue
		}
		ok = append(ok, o)
		if o.traced && o.status != nil {
			traced = append(traced, o)
		} else if !o.traced {
			untraced = append(untraced, o)
		}
		if !o.job.repeat { // repeated inputs are cache hits where the cache is on
			fresh = append(fresh, o)
		}
	}
	add("bench.jobs", float64(len(ok)), "count")
	add("bench.traced_jobs", float64(len(traced)), "count")

	// httpapi: the submit call; delivery, from the service finishing the
	// job to the verified result in the client's hand (client and service
	// share this process's clock, and the submit call is not subtracted
	// because on the durable workload it overlaps the queue wait); and the
	// v2 JSON sizes.
	var submitMs, deliveryMs, waitMs []float64
	runMs := map[string][]float64{}
	var reqBytes, resBytes float64
	for _, o := range traced {
		st := o.status
		submitMs = append(submitMs, ms(o.submit))
		if sub, err := time.Parse(time.RFC3339Nano, st.Submitted); err == nil {
			deliveryMs = append(deliveryMs, ms(o.done.Sub(sub))-st.WaitMs-st.RunMs)
		}
		waitMs = append(waitMs, st.WaitMs)
		if !st.CacheHit {
			runMs[st.Backend] = append(runMs[st.Backend], st.RunMs)
		}
		reqBytes += float64(o.reqBytes)
		resBytes += float64(o.resBytes)
	}
	add("httpapi.submit_call_ms_p50", median(submitMs), "ms")
	add("httpapi.delivery_ms_p50", median(deliveryMs), "ms")
	add("httpapi.request_bytes_per_job", perJob(reqBytes, len(traced)), "B")
	add("httpapi.result_bytes_per_job", perJob(resBytes, len(traced)), "B")

	// service
	m0, m1 := win.before, win.after
	completed := m1.Completed - m0.Completed
	add("service.queue_wait_ms_p50", percentile(waitMs, 0.5), "ms")
	add("service.queue_wait_ms_p90", percentile(waitMs, 0.9), "ms")
	for _, b := range []string{service.BackendMulticore, service.BackendEmulated, service.BackendLane} {
		add("service.run_ms_p50."+b, median(runMs[b]), "ms")
	}
	add("service.jobs_completed", float64(completed), "count")
	add("service.cache_hits", float64(m1.CacheHits-m0.CacheHits), "count")
	add("service.cache_hit_ratio", perJob(float64(m1.CacheHits-m0.CacheHits), int(completed)), "ratio")
	lanes := m1.LanesDispatched - m0.LanesDispatched
	laneJobs := m1.LaneJobs - m0.LaneJobs
	add("service.lanes_dispatched", float64(lanes), "count")
	add("service.lane_jobs", float64(laneJobs), "count")
	add("service.lane_fill_ratio", perJob(float64(laneJobs), int(lanes)*laneWidth), "ratio")
	add("service.recover_ms", median(recovers), "ms")

	// engine: the window's fresh solves, then the direct probe.
	var sweeps, rotations, pairs, wallNs float64
	var solo int
	for _, o := range fresh {
		res := o.res
		sweeps += float64(res.Sweeps)
		rotations += float64(res.Rotations)
		if res.Backend != service.BackendLane {
			n := float64(o.job.class.n)
			pairs += float64(res.Sweeps) * n * (n - 1) / 2
			wallNs += res.WallMs * 1e6
			solo++
		}
	}
	add("engine.fresh_jobs", float64(len(fresh)), "count")
	add("engine.sweeps_per_job", perJob(sweeps, len(fresh)), "count")
	add("engine.rotations_per_job", perJob(rotations, len(fresh)), "count")
	add("engine.solo_jobs", float64(solo), "count")
	nsPerPair := 0.0
	if pairs > 0 {
		nsPerPair = wallNs / pairs
	}
	add("engine.ns_per_pair", nsPerPair, "ns")
	primary := &r.w.classes[0]
	ep, err := probeEngine(r.tr, primary, r.st.warm[0].seed, engineReps)
	if err != nil {
		return nil, err
	}
	add("engine.solve_ms_p50", median(ep.solveMs), "ms")
	add("engine.sweep_ms_p50", median(ep.sweepMs), "ms")
	add("engine.central_solve_ms", ep.centralMs, "ms")

	// kernel
	kp, err := probeKernel(r.tr, &workloads[0].classes[0], &workloads[1].classes[0], kernelReps)
	if err != nil {
		return nil, err
	}
	add("kernel.fused_ns_per_pair", kp.nsPerPair, "ns")
	add("kernel.fused_gflops", kp.gflops, "GFLOP/s")
	add("kernel.fused_flops_per_byte", kp.flopsPerByte, "flop/B")
	add("kernel.lane_ns_per_pair_per_job", kp.laneNsPerPair, "ns")

	// ordering: builds inside the window mean the warm-up missed a shape.
	c0, c1 := win.cache[0], win.cache[1]
	add("ordering.schedule_builds", float64(c1.Builds-c0.Builds), "count")
	add("ordering.schedule_hits", float64(c1.Hits-c0.Hits), "count")
	add("ordering.schedule_bypasses", float64(c1.Bypasses-c0.Bypasses), "count")

	// tuner
	add("tuner.search_ms", median(searches), "ms")
	add("tuner.tuned_jobs", float64(m1.TunedJobs-m0.TunedJobs), "count")
	add("tuner.hits", float64(m1.TunedHits-m0.TunedHits), "count")
	add("tuner.misses", float64(m1.TunedMisses-m0.TunedMisses), "count")
	gain := 0.0
	if e.search != nil && e.search.BaselineMakespan > 0 {
		gain = e.search.Winner.Gain() / e.search.BaselineMakespan
	}
	add("tuner.model_gain_frac", gain, "ratio")

	// machine: the fresh jobs that ran on the emulated machine.
	var machineJobs int
	var msgs, elems, makespan, emuWallNs float64
	for _, o := range fresh {
		if o.res.Backend != service.BackendEmulated {
			continue
		}
		machineJobs++
		msgs += float64(o.res.Messages)
		elems += float64(o.res.Elements)
		makespan += o.res.Makespan
		emuWallNs += o.res.WallMs * 1e6
	}
	add("machine.jobs", float64(machineJobs), "count")
	add("machine.messages_per_job", perJob(msgs, machineJobs), "count")
	add("machine.elements_per_job", perJob(elems, machineJobs), "count")
	add("machine.makespan_per_job", perJob(makespan, machineJobs), "units")
	wallPerUnit := 0.0
	if makespan > 0 {
		wallPerUnit = emuWallNs / makespan
	}
	add("machine.wall_ns_per_model_unit", wallPerUnit, "ns/unit")

	// store: window growth on the durable workload, probes everywhere.
	journal, ckpt := 0.0, 0.0
	if e.dataDir != "" {
		journal = perJob(float64(win.journal[1]-win.journal[0]), len(ok))
		ckpt = float64(len(store.EncodeCheckpointImage(ep.ck))) * perJob(sweeps, len(fresh))
	}
	add("store.journal_bytes_per_job", journal, "B")
	add("store.checkpoint_bytes_per_job", ckpt, "B")
	sp, err := probeStore(r.tr, r.freshDataDir(), primary, ep.ck, storeReps)
	if err != nil {
		return nil, err
	}
	add("store.append_ms_p50", median(sp.appendMs), "ms")
	add("store.save_checkpoint_ms_p50", median(sp.saveMs), "ms")
	open := sp.openMs
	if e.dataDir != "" {
		open = median(opens) // the seeded journal's replay
	}
	add("store.open_ms", open, "ms")

	// process
	mem0, mem1 := &win.mem[0], &win.mem[1]
	add("runtime.alloc_bytes_per_job", perJob(float64(mem1.TotalAlloc-mem0.TotalAlloc), len(ok)), "B")
	add("runtime.gc_cycles_per_job", perJob(float64(mem1.NumGC-mem0.NumGC), len(ok)), "count")

	// tracing: traced and untraced requests shared the window.
	add("trace.spans", float64(r.tr.count()), "count")
	add("trace.overhead_frac", overhead(traced, untraced), "ratio")
	return out, nil
}

// overhead is the relative median-latency difference of traced over
// untraced jobs.
func overhead(traced, untraced []outcome) float64 {
	lat := func(os []outcome) []float64 {
		xs := make([]float64, len(os))
		for i, o := range os {
			xs[i] = ms(o.latency)
		}
		return xs
	}
	base := median(lat(untraced))
	if base == 0 {
		return 0
	}
	return median(lat(traced))/base - 1
}
