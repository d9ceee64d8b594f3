package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/matrix"
	"repro/internal/ordering"
	"repro/internal/service"
	"repro/internal/store"
)

// The probes of a traced run time single layers directly, below the
// service, after the timed window has ended.

// engineProbe is the direct multicore solve of one input of a class's
// shape, with no service around it.
type engineProbe struct {
	solveMs   []float64
	sweepMs   []float64
	centralMs float64
	// ck is a real sweep-boundary checkpoint of the solve.
	ck *engine.Checkpoint
}

// probeEngine solves one input reps times on the multicore backend, timing
// each solve and each sweep (through OnSweep), after one capture run that
// takes a checkpoint; then once on the single-threaded reference path.
func probeEngine(tr *tracer, c *jobClass, seed int64, reps int) (*engineProbe, error) {
	fam := ordering.NewPermutedBRFamily()
	a := matrix.RandomSymmetric(c.n, rand.New(rand.NewSource(seed)))
	p := &engineProbe{}
	for i := 0; i <= reps; i++ {
		var sweeps []float64
		var last time.Time
		cfg := jacobi.ParallelConfig{
			Family:  fam,
			Backend: &engine.Multicore{},
			OnSweep: func(engine.SweepProgress) {
				now := time.Now()
				sweeps = append(sweeps, ms(now.Sub(last)))
				last = now
			},
		}
		if i == 0 {
			cfg.OnCheckpoint = func(ck *engine.Checkpoint) {
				if p.ck == nil {
					p.ck = ck.Clone()
				}
			}
		}
		sp := tr.start("jacobi.SolveParallel", "", 0)
		t0 := time.Now()
		last = t0
		_, _, err := jacobi.SolveParallel(a, c.dim, cfg)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("engine probe: %w", err)
		}
		if i > 0 { // run 0 captured checkpoints, which the timing must not include
			p.solveMs = append(p.solveMs, ms(d))
			p.sweepMs = append(p.sweepMs, sweeps...)
		}
	}
	if p.ck == nil {
		return nil, fmt.Errorf("engine probe: no checkpoint captured")
	}
	sp := tr.start("jacobi.SolveSchedule", "", 0)
	t0 := time.Now()
	_, err := jacobi.SolveSchedule(a, c.dim, fam, jacobi.Options{})
	p.centralMs = ms(time.Since(t0))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("engine probe: central solve: %w", err)
	}
	return p, nil
}

// kernelProbe is the fused block-pairing kernel rate on solve-large's
// block shape and the lane kernel rate on serve-small's lane shape.
type kernelProbe struct {
	nsPerPair     float64
	gflops        float64
	flopsPerByte  float64
	laneNsPerPair float64
}

// probeKernel times one sweep's worth of fused pairings — every block with
// itself, then disjoint block pairs — on fresh copies of the blocks of a
// random input, so every pair rotates as in a first sweep. The copy just
// before each timed round leaves the blocks in cache.
func probeKernel(tr *tracer, large, lane *jobClass, reps int) (*kernelProbe, error) {
	a := matrix.RandomSymmetric(large.n, rand.New(rand.NewSource(1)))
	pristine, err := engine.BuildBlocks(a, large.dim)
	if err != nil {
		return nil, err
	}
	m := float64(large.n)
	var pairs, bytes float64
	for i, b := range pristine {
		w := float64(b.NumCols())
		pairs += w * (w - 1) / 2
		bytes += 2 * 2 * 8 * m * w // read+write of the A and U columns
		if i%2 == 1 {
			x := float64(pristine[i-1].NumCols())
			pairs += x * w
			bytes += 2 * 2 * 8 * m * (x + w)
		}
	}
	flops := 14 * m * pairs
	var sc engine.Scratch
	var times []float64
	for r := 0; r <= reps; r++ {
		blocks := make([]*engine.Block, len(pristine))
		for i, b := range pristine {
			blocks[i] = b.Clone()
		}
		var conv engine.ConvTracker
		sp := tr.start("engine.PairFused", "", 0)
		t0 := time.Now()
		for _, b := range blocks {
			engine.PairWithinFused(b, &sc, &conv)
		}
		for i := 1; i < len(blocks); i += 2 {
			engine.PairCrossFused(blocks[i-1], blocks[i], &sc, &conv)
		}
		d := time.Since(t0)
		sp.end()
		if r > 0 { // round 0 sizes the scratch
			times = append(times, float64(d.Nanoseconds()))
		}
	}
	ns := median(times)
	kp := &kernelProbe{nsPerPair: ns / pairs, gflops: flops / ns, flopsPerByte: flops / bytes}

	const laneSweeps = 6
	reqs := make([]*jacobi.LaneRequest, laneWidth)
	for k := range reqs {
		reqs[k] = &jacobi.LaneRequest{
			A:           matrix.RandomSymmetric(lane.n, rand.New(rand.NewSource(int64(k+1)))),
			FixedSweeps: laneSweeps,
		}
	}
	lanePairs := float64(laneWidth*laneSweeps) * float64(lane.n*(lane.n-1)/2)
	times = times[:0]
	for r := 0; r <= reps; r++ {
		sp := tr.start("jacobi.SolveLane", "", 0)
		t0 := time.Now()
		_, err := jacobi.SolveLane(lane.dim, ordering.NewPermutedBRFamily(), false, reqs)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("lane probe: %w", err)
		}
		if r > 0 {
			times = append(times, float64(d.Nanoseconds()))
		}
	}
	kp.laneNsPerPair = median(times) / lanePairs
	return kp, nil
}

// storeProbe times journal appends of a submit record of the class's
// size, checkpoint saves and a store reopen, in a scratch data directory
// on the same filesystem as the durable workload's.
type storeProbe struct {
	appendMs []float64
	saveMs   []float64
	openMs   float64
}

func probeStore(tr *tracer, dir string, c *jobClass, ck *engine.Checkpoint, reps int) (*storeProbe, error) {
	defer os.RemoveAll(dir)
	spec, err := service.JobRequest{Random: &service.RandomSpec{N: c.n, Seed: 1}, Dim: c.dim, Backend: c.backend}.Spec()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	p := &storeProbe{}
	for i := 0; i < reps; i++ {
		rec := store.Record{Kind: store.KindSubmitted, ID: fmt.Sprintf("job-%d", i+1), Backend: service.BackendMulticore, Spec: specJSON}
		sp := tr.start("store.Append", "", 0)
		t0 := time.Now()
		err := st.Append(rec)
		p.appendMs = append(p.appendMs, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	for i := 0; i < reps; i++ {
		sp := tr.start("store.SaveCheckpoint", "", 0)
		t0 := time.Now()
		err := st.SaveCheckpoint("job-1", ck)
		p.saveMs = append(p.saveMs, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	sp := tr.start("store.Open", "", 0)
	t0 := time.Now()
	st, err = store.Open(dir)
	p.openMs = ms(time.Since(t0))
	sp.end()
	if err != nil {
		return nil, err
	}
	return p, st.Close()
}
