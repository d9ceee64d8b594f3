package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/client"
	"repro/internal/matrix"
)

// checkTol is the relative tolerance of the output check. Orthogonal
// similarity preserves trace(A) = Σλ and ‖A‖²_F = Σλ²; converged solves of
// these inputs reproduce both to within 3e-13 relative, so 1e-9 leaves
// more than three orders of margin, while a single eigenvalue off by more
// than 1e-9·‖A‖_F fails the trace test.
const checkTol = 1e-9

// invariants are what an input's eigenvalues must reproduce.
type invariants struct {
	n     int
	trace float64 // trace(A)
	frob2 float64 // ‖A‖²_F
}

// inputInvariants regenerates the input the service builds for a
// RandomSpec and returns its invariants.
func inputInvariants(n int, seed int64) invariants {
	a := matrix.RandomSymmetric(n, rand.New(rand.NewSource(seed)))
	inv := invariants{n: n}
	for i := 0; i < n; i++ {
		inv.trace += a.At(i, i)
	}
	f := a.FrobeniusNorm()
	inv.frob2 = f * f
	return inv
}

// check verifies one result against its input's invariants.
func (inv invariants) check(res *client.Result) error {
	if !res.Converged {
		return fmt.Errorf("not converged after %d sweeps", res.Sweeps)
	}
	if len(res.Values) != inv.n {
		return fmt.Errorf("%d eigenvalues for n=%d", len(res.Values), inv.n)
	}
	if !sort.Float64sAreSorted(res.Values) {
		return fmt.Errorf("eigenvalues not in ascending order")
	}
	var sum, sum2 float64
	for _, v := range res.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite eigenvalue %v", v)
		}
		sum += v
		sum2 += v * v
	}
	scale := math.Sqrt(inv.frob2)
	if d := math.Abs(sum - inv.trace); d > checkTol*scale {
		return fmt.Errorf("Σλ = %.17g, trace(A) = %.17g (|Δ| %.3g > %.1g·‖A‖_F)", sum, inv.trace, d, checkTol)
	}
	if d := math.Abs(sum2 - inv.frob2); d > checkTol*inv.frob2 {
		return fmt.Errorf("Σλ² = %.17g, ‖A‖²_F = %.17g (|Δ| %.3g > %.1g·‖A‖²_F)", sum2, inv.frob2, d, checkTol)
	}
	return nil
}

// sameBits reports whether two eigenvalue lists are bit-identical, the
// contract of a result-cache hit against the first solve of its input.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values, first solve had %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d is %v, first solve had %v", i, a[i], b[i])
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of xs (p in (0,1]); xs is
// not modified. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
