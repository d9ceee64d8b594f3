package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/jacobi"
	"repro/internal/matrix"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against: every named metric must be emitted with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeJobs keeps each smoke run to a couple of requests per client.
var smokeJobs = map[string]string{"solve-large": "2", "serve-small": "32", "serve-durable": "4"}

// TestSmoke runs every workload briefly, untraced and traced, through the
// command line, and checks the result line: correct, nothing failed, and
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := e2e
			if trace == "1" {
				want = layer
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--jobs", smokeJobs[w.Name], "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not named in BENCHMARK.json", name)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCheckCatchesPerturbedEigenvalue solves one input and checks that the
// output check accepts it, then rejects it with one eigenvalue perturbed,
// and that the cache-hit comparison rejects a one-ulp change.
func TestCheckCatchesPerturbedEigenvalue(t *testing.T) {
	const n, seed = 32, 5
	a := matrix.RandomSymmetric(n, rand.New(rand.NewSource(seed)))
	eig, err := jacobi.SolveCyclic(a, jacobi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := &client.Result{Values: eig.Values, Converged: eig.Converged, Sweeps: eig.Sweeps}
	inv := inputInvariants(n, seed)
	if err := inv.check(res); err != nil {
		t.Fatalf("exact solve rejected: %v", err)
	}
	for _, rel := range []float64{1e-6, -1e-4, 1} {
		bad := append([]float64(nil), res.Values...)
		bad[n/2] += rel * a.FrobeniusNorm()
		if err := inv.check(&client.Result{Values: bad, Converged: true}); err == nil {
			t.Errorf("eigenvalue perturbed by %g·‖A‖_F passed the check", rel)
		}
	}
	if err := inv.check(&client.Result{Values: res.Values[1:], Converged: true}); err == nil {
		t.Error("a missing eigenvalue passed the check")
	}
	if err := inv.check(&client.Result{Values: res.Values, Converged: false}); err == nil {
		t.Error("an unconverged result passed the check")
	}
	ulp := append([]float64(nil), res.Values...)
	ulp[0] = math.Nextafter(ulp[0], math.Inf(1))
	if err := sameBits(ulp, res.Values); err == nil {
		t.Error("a one-ulp change passed the cache-hit bit check")
	}
	if err := sameBits(res.Values, append([]float64(nil), res.Values...)); err != nil {
		t.Errorf("identical values failed the bit check: %v", err)
	}
}

// TestStreamFromSeed checks that one seed reproduces the same job stream,
// another seed gives another, and distinct inputs never repeat.
func TestStreamFromSeed(t *testing.T) {
	flat := func(st *stream) []job {
		out := append([]job(nil), st.warm...)
		out = append(out, st.seed...)
		for _, reqs := range st.clients {
			for _, req := range reqs {
				out = append(out, req...)
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b := flat(w.newStream(9, 200)), flat(w.newStream(9, 200))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 9 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, flat(w.newStream(10, 200))) {
			t.Errorf("%s: seeds 9 and 10 gave the same stream", w.name)
		}
		seen := map[int64]bool{}
		timed := 0
		for _, j := range a {
			if j.repeat {
				continue
			}
			if seen[j.seed] {
				t.Errorf("%s: distinct input seed %d repeats", w.name, j.seed)
			}
			seen[j.seed] = true
		}
		st := w.newStream(9, 200)
		for _, reqs := range st.clients {
			for _, req := range reqs {
				timed += len(req)
			}
		}
		if timed < 200 || timed >= 200+w.jobsPerRequest() {
			t.Errorf("%s: %d timed jobs for a count of 200", w.name, timed)
		}
	}
}
