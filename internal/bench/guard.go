// Package bench is the bench-regression harness: it loads the repository's
// BENCH_*.json trajectory files (written by `jacobitool bench -json`) and
// exposes the comparison the regression-guard test enforces in CI.
//
// Two kinds of comparison, because wall-clock numbers only compare within
// one host:
//
//   - portable guards run on any pair of reports of the same fused-kernel
//     arm: the sweep inner loop must stay allocation-free and the
//     multicore-vs-emulated speedup must not regress by more than the
//     tolerance (both are host-size-free ratios, but the speedup moves with
//     the SIMD arm the multicore backend's kernels dispatch to, so Previous
//     picks the baseline from the same arm);
//   - same-host guards additionally bound the multicore wall-clock and
//     ns/pair regression; CI produces a same-host pair by running the bench
//     twice and the guard test reads them via the BENCH_GUARD_NEW
//     environment variable.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Report mirrors the fields of jacobitool's bench JSON that the guard
// consumes; unknown fields are ignored so the formats can grow
// independently.
type Report struct {
	Date               string  `json:"date"`
	MatrixSize         int     `json:"matrix_size"`
	Dim                int     `json:"dim"`
	FusedArm           string  `json:"fused_arm"`
	EmulatedWallMs     float64 `json:"emulated_wall_ms"`
	MulticoreWallMs    float64 `json:"multicore_wall_ms"`
	Speedup            float64 `json:"speedup"`
	MulticoreNsPerPair float64 `json:"multicore_ns_per_pair"`
	SweepAllocsPerOp   float64 `json:"sweep_allocs_per_op"`

	// Batched-lane metrics (reports predating the lane leave them zero,
	// which disables the lane guards for that pair).
	LaneWidth                int     `json:"lane_width"`
	BatchJobsPerSec          float64 `json:"batch_jobs_per_sec"`
	BatchUnbatchedJobsPerSec float64 `json:"batch_unbatched_jobs_per_sec"`
	BatchLaneJobsPerSec      float64 `json:"batch_lane_jobs_per_sec"`
	LaneAllocsPerOp          float64 `json:"lane_allocs_per_op"`

	// Path records where the report was loaded from (not part of the JSON).
	Path string `json:"-"`
}

// Load reads one report.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	r.Path = path
	return &r, nil
}

// LoadDir returns every BENCH_*.json in dir, sorted ascending by file name
// (the names embed the ISO date, so name order is trajectory order).
func LoadDir(dir string) ([]*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Report, 0, len(paths))
	for _, p := range paths {
		r, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Arm returns the report's fused-kernel dispatch arm. Reports written
// before the field existed came from AVX2 hosts and count as "avx2".
func (r *Report) Arm() string {
	if r.FusedArm == "" {
		return "avx2"
	}
	return r.FusedArm
}

// Previous returns the baseline for trajectory[i]: the most recent earlier
// report of the same fused-kernel arm, or nil when there is none.
func Previous(trajectory []*Report, i int) *Report {
	arm := trajectory[i].Arm()
	for j := i - 1; j >= 0; j-- {
		if trajectory[j].Arm() == arm {
			return trajectory[j]
		}
	}
	return nil
}

// Tolerances of the guard: relative regression allowed before failing.
const (
	// WallTol is the same-host wall-clock and ns/pair tolerance (10%).
	WallTol = 0.10
	// SpeedupTol is the portable speedup-ratio tolerance. Looser than
	// WallTol: the ratio moves with host core count as well as kernel
	// speed, and cross-host comparisons must not flap.
	SpeedupTol = 0.25
	// LaneMinAdvantage is the floor on the lane-vs-unbatched throughput
	// ratio: both rates come from the same run on the same host, so the
	// ratio is host-size-free — the lane must beat solving the same jobs
	// unbatched by at least this factor or it has lost its reason to
	// exist.
	LaneMinAdvantage = 1.5
)

// Compare checks cur against prev and returns every violated guard.
// sameHost enables the wall-clock guards. A nil prev (no earlier report of
// cur's arm) leaves only the guards that read cur alone.
func Compare(prev, cur *Report, sameHost bool) []string {
	var bad []string
	prevAllocs := 0.0
	if prev != nil {
		prevAllocs = prev.SweepAllocsPerOp
	}
	if cur.SweepAllocsPerOp > prevAllocs || cur.SweepAllocsPerOp > 0 {
		bad = append(bad, fmt.Sprintf("sweep inner loop allocates: %.2f allocs/op (previous %.2f)",
			cur.SweepAllocsPerOp, prevAllocs))
	}
	if prev == nil {
		return append(bad, laneGuards(cur)...)
	}
	if prev.Speedup > 0 && cur.Speedup < prev.Speedup*(1-SpeedupTol) {
		bad = append(bad, fmt.Sprintf("multicore speedup regressed: %.2fx -> %.2fx (tolerance %.0f%%)",
			prev.Speedup, cur.Speedup, SpeedupTol*100))
	}
	bad = append(bad, laneGuards(cur)...)
	if sameHost {
		if prev.MulticoreWallMs > 0 && cur.MulticoreWallMs > prev.MulticoreWallMs*(1+WallTol) {
			bad = append(bad, fmt.Sprintf("multicore wall-clock regressed: %.1fms -> %.1fms (tolerance %.0f%%)",
				prev.MulticoreWallMs, cur.MulticoreWallMs, WallTol*100))
		}
		if prev.MulticoreNsPerPair > 0 && cur.MulticoreNsPerPair > prev.MulticoreNsPerPair*(1+WallTol) {
			bad = append(bad, fmt.Sprintf("multicore ns/pair regressed: %.0f -> %.0f (tolerance %.0f%%)",
				prev.MulticoreNsPerPair, cur.MulticoreNsPerPair, WallTol*100))
		}
	}
	return bad
}

// laneGuards are intra-report, so they are portable: a report carrying lane
// numbers must show an allocation-free lane inner loop and a lane that
// actually pays for its gather complexity.
func laneGuards(cur *Report) []string {
	if cur.BatchLaneJobsPerSec == 0 {
		return nil
	}
	var bad []string
	if cur.LaneAllocsPerOp > 0 {
		bad = append(bad, fmt.Sprintf("lane inner loop allocates: %.2f allocs/op", cur.LaneAllocsPerOp))
	}
	if cur.BatchUnbatchedJobsPerSec > 0 &&
		cur.BatchLaneJobsPerSec < cur.BatchUnbatchedJobsPerSec*LaneMinAdvantage {
		bad = append(bad, fmt.Sprintf("lane throughput advantage below %.1fx: %.1f lane vs %.1f unbatched jobs/sec",
			LaneMinAdvantage, cur.BatchLaneJobsPerSec, cur.BatchUnbatchedJobsPerSec))
	}
	return bad
}
