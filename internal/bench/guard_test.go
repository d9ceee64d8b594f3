package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchRegressionGuard is the CI regression gate. It assembles the
// trajectory from the repository's committed BENCH_*.json files plus any
// fresh reports named in BENCH_GUARD_NEW (colon-separated paths, appended
// in order), then:
//
//   - compares the newest report with the portable guards (allocs, speedup
//     ratio) against the most recent earlier report of the same fused-kernel
//     arm (Previous), or on its own when that arm has no earlier report;
//   - when BENCH_GUARD_NEW supplies two or more fresh reports — CI runs the
//     bench twice on the same host — additionally applies the wall-clock
//     guards to that same-host pair.
//
// With fewer than two reports in total the test skips (a fresh clone with
// one committed snapshot has nothing to compare).
func TestBenchRegressionGuard(t *testing.T) {
	reports, err := LoadDir(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var fresh []*Report
	if env := os.Getenv("BENCH_GUARD_NEW"); env != "" {
		for _, p := range strings.Split(env, ":") {
			if p == "" {
				continue
			}
			r, err := Load(p)
			if err != nil {
				t.Fatalf("BENCH_GUARD_NEW: %v", err)
			}
			fresh = append(fresh, r)
		}
		reports = append(reports, fresh...)
	}
	if len(reports) < 2 {
		t.Skipf("only %d bench report(s) available, nothing to compare", len(reports))
	}
	cur := reports[len(reports)-1]
	prev := Previous(reports, len(reports)-1)
	if prev == nil {
		t.Logf("no earlier %s report: checking %s on its own", cur.Arm(), cur.Path)
	} else {
		t.Logf("comparing %s -> %s (%s arm)", prev.Path, cur.Path, cur.Arm())
	}
	for _, msg := range Compare(prev, cur, false) {
		t.Error(msg)
	}
	if len(fresh) >= 2 {
		p, c := fresh[len(fresh)-2], fresh[len(fresh)-1]
		t.Logf("same-host pair %s -> %s", p.Path, c.Path)
		for _, msg := range Compare(p, c, true) {
			t.Error(msg)
		}
	}
}

// repoRoot walks up from the package directory to the module root (where
// the BENCH_*.json trajectory lives, next to go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestCompareGuards pins the guard semantics on synthetic reports.
func TestCompareGuards(t *testing.T) {
	base := &Report{
		MulticoreWallMs:    100,
		EmulatedWallMs:     400,
		Speedup:            4.0,
		MulticoreNsPerPair: 500,
		SweepAllocsPerOp:   0,
	}
	clone := func(mut func(*Report)) *Report {
		r := *base
		mut(&r)
		return &r
	}

	if bad := Compare(base, clone(func(r *Report) {}), true); len(bad) != 0 {
		t.Errorf("identical reports flagged: %v", bad)
	}
	// Any allocation in the sweep inner loop fails, portable mode included.
	if bad := Compare(base, clone(func(r *Report) { r.SweepAllocsPerOp = 1 }), false); len(bad) != 1 {
		t.Errorf("alloc increase not flagged: %v", bad)
	}
	// Speedup regression beyond tolerance fails portably.
	if bad := Compare(base, clone(func(r *Report) { r.Speedup = 2.0 }), false); len(bad) != 1 {
		t.Errorf("speedup regression not flagged: %v", bad)
	}
	// Small speedup wobble passes.
	if bad := Compare(base, clone(func(r *Report) { r.Speedup = 3.5 }), false); len(bad) != 0 {
		t.Errorf("speedup wobble flagged: %v", bad)
	}
	// Wall-clock regression only fails in same-host mode.
	slow := clone(func(r *Report) { r.MulticoreWallMs = 150; r.MulticoreNsPerPair = 750 })
	if bad := Compare(base, slow, false); len(bad) != 0 {
		t.Errorf("cross-host wall regression flagged: %v", bad)
	}
	if bad := Compare(base, slow, true); len(bad) != 2 {
		t.Errorf("same-host wall regression not fully flagged: %v", bad)
	}
	// 10%-boundary wobble passes same-host.
	if bad := Compare(base, clone(func(r *Report) { r.MulticoreWallMs = 108 }), true); len(bad) != 0 {
		t.Errorf("within-tolerance wall wobble flagged: %v", bad)
	}

	// Lane guards only arm when the report carries lane numbers; old
	// reports (zero lane fields) stay clean.
	if bad := Compare(base, clone(func(r *Report) {}), false); len(bad) != 0 {
		t.Errorf("lane guards armed on pre-lane report: %v", bad)
	}
	withLane := func(lane, unbatched, allocs float64) *Report {
		return clone(func(r *Report) {
			r.BatchLaneJobsPerSec = lane
			r.BatchUnbatchedJobsPerSec = unbatched
			r.LaneAllocsPerOp = allocs
		})
	}
	// A healthy lane report passes.
	if bad := Compare(base, withLane(300, 150, 0), false); len(bad) != 0 {
		t.Errorf("healthy lane report flagged: %v", bad)
	}
	// The lane inner loop must never allocate.
	if bad := Compare(base, withLane(300, 150, 1), false); len(bad) != 1 {
		t.Errorf("lane alloc not flagged: %v", bad)
	}
	// The lane must beat unbatched solves by LaneMinAdvantage, same host by
	// construction (both rates come from one run).
	if bad := Compare(base, withLane(200, 150, 0), false); len(bad) != 1 {
		t.Errorf("thin lane advantage not flagged: %v", bad)
	}
}

// TestPreviousMatchesArm pins the baseline choice: the most recent earlier
// report of the same fused-kernel arm, with a missing arm read as avx2.
func TestPreviousMatchesArm(t *testing.T) {
	old := &Report{Path: "old"} // predates fused_arm: avx2
	a512 := &Report{Path: "a512", FusedArm: "avx512"}
	a2 := &Report{Path: "a2", FusedArm: "avx2"}
	gen := &Report{Path: "gen", FusedArm: "generic"}
	traj := []*Report{old, a512, a2, gen}
	for i, want := range []*Report{nil, nil, old, nil} {
		if got := Previous(traj, i); got != want {
			t.Errorf("Previous(%s) = %v, want %v", traj[i].Path, got, want)
		}
	}
	// A fresh avx2 report skips the newer avx512 one.
	fresh := append(traj[:2:2], &Report{Path: "fresh", FusedArm: "avx2"})
	if got := Previous(fresh, 2); got != old {
		t.Errorf("fresh avx2 report compared against %v, want old", got)
	}
	// Without a same-arm baseline only the single-report guards apply.
	if bad := Compare(nil, &Report{Speedup: 0.1}, true); len(bad) != 0 {
		t.Errorf("nil baseline applied cross-report guards: %v", bad)
	}
	if bad := Compare(nil, &Report{SweepAllocsPerOp: 1}, false); len(bad) != 1 {
		t.Errorf("nil baseline skipped the alloc guard: %v", bad)
	}
}
