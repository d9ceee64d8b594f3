package kernel

// This file is the fused path: blocked, zero-allocation kernels that stream
// each column pair through cache once per pairing instead of three times.
//
// Structure of a fused pairing (Scratch.Cross / Scratch.Within):
//
//  1. One norm pass fills the per-worker scratch buffers with the squared
//     norms (alpha, beta) of every column in the pairing. From here on,
//     norms are carried algebraically-for-free: the rotation application
//     that changes a column also accumulates its new squared norm, in the
//     same pass.
//  2. Each row of pairs (fixed left column i) opens with a single fused dot
//     for the first gamma; every subsequent gamma is accumulated during the
//     previous pair's rotation application (the lookahead: while rotating
//     (x, y_j) the kernel already streams y_{j+1} and accumulates x'·y_{j+1}).
//  3. The rotation application is fused with the norm and lookahead
//     accumulation in one sweep over the working pair's rows
//     (rotateGramNext); the factor pair — U for the eigensolve, the
//     rectangular V for the SVD, with its own column height — is rotated by
//     the same vectorized application (applyPair) in the same kernel call.
//
// Steady state, a rotated pair costs one combined pass (read x, y, y_next;
// write x, y) plus the factor pair's single pass — versus the reference
// path's three Gram passes and two application passes. All accumulators are
// unrolled into independent chains (vector lanes on hosts with SIMD
// dispatch, see simd_amd64.go), so the sums are reassociations of the
// reference sums; see the package comment for the documented ulp bound.
//
// None of the routines here allocate: the scratch buffers are the only
// storage beyond the columns themselves, sized once per worker and reused
// across every pairing and sweep (bench_test.go pins 0 allocs/op).

// FusedArm names the dispatch arm the fused primitives run on this host:
// "avx512", "avx2" or "generic". Fused results, and their speed, are
// comparable only between runs on the same arm.
func FusedArm() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX:
		return "avx2"
	}
	return "generic"
}

// sqNormGeneric is the portable SqNorm: four independent accumulator
// chains.
//
//jacobi:noalloc
func sqNormGeneric(x []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		s0 += x0 * x0
		s1 += x1 * x1
		s2 += x2 * x2
		s3 += x3 * x3
	}
	for ; k < len(x); k++ {
		s0 += x[k] * x[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// gammaDotGeneric is the portable GammaDot: four independent accumulator
// chains.
//
//jacobi:noalloc
func gammaDotGeneric(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	for ; k < len(x); k++ {
		s0 += x[k] * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// Gram returns the Gram entries (alpha, beta, gamma) of a column pair in a
// single fused pass with two independent accumulator chains per entry. The
// columns must have equal length.
//
//jacobi:noalloc
func Gram(x, y []float64) (alpha, beta, gamma float64) {
	y = y[:len(x)]
	var a0, a1, b0, b1, g0, g1 float64
	k := 0
	for ; k+2 <= len(x); k += 2 {
		x0, y0 := x[k], y[k]
		a0 += x0 * x0
		b0 += y0 * y0
		g0 += x0 * y0
		x1, y1 := x[k+1], y[k+1]
		a1 += x1 * x1
		b1 += y1 * y1
		g1 += x1 * y1
	}
	for ; k < len(x); k++ {
		x0, y0 := x[k], y[k]
		a0 += x0 * x0
		b0 += y0 * y0
		g0 += x0 * y0
	}
	return a0 + a1, b0 + b1, g0 + g1
}

// applyPairGeneric is the portable applyPair.
//
//jacobi:noalloc
func applyPairGeneric(c, s float64, x, y []float64) {
	y = y[:len(x)]
	k := 0
	for ; k+2 <= len(x); k += 2 {
		x0, y0 := x[k], y[k]
		x[k] = c*x0 - s*y0
		y[k] = s*x0 + c*y0
		x1, y1 := x[k+1], y[k+1]
		x[k+1] = c*x1 - s*y1
		y[k+1] = s*x1 + c*y1
	}
	for ; k < len(x); k++ {
		x0, y0 := x[k], y[k]
		x[k] = c*x0 - s*y0
		y[k] = s*x0 + c*y0
	}
}

// rotateGramNextGeneric applies the rotation (c, s) to the working pair (x, y) and,
// in the same pass over the rows, accumulates the pair's updated squared
// norms a = Σx'², b = Σy'² and the lookahead dot g = Σx'·ynext — the Gram
// gamma of the next pair in the row. All three columns must have equal
// length.
//
//jacobi:noalloc
func rotateGramNextGeneric(c, s float64, x, y, ynext []float64) (a, b, g float64) {
	y = y[:len(x)]
	yn := ynext[:len(x)]
	var a0, a1, b0, b1, g0, g1 float64
	k := 0
	for ; k+2 <= len(x); k += 2 {
		xi0, yi0 := x[k], y[k]
		xr0 := c*xi0 - s*yi0
		yr0 := s*xi0 + c*yi0
		x[k], y[k] = xr0, yr0
		a0 += xr0 * xr0
		b0 += yr0 * yr0
		g0 += xr0 * yn[k]
		xi1, yi1 := x[k+1], y[k+1]
		xr1 := c*xi1 - s*yi1
		yr1 := s*xi1 + c*yi1
		x[k+1], y[k+1] = xr1, yr1
		a1 += xr1 * xr1
		b1 += yr1 * yr1
		g1 += xr1 * yn[k+1]
	}
	for ; k < len(x); k++ {
		xi, yi := x[k], y[k]
		xr := c*xi - s*yi
		yr := s*xi + c*yi
		x[k], y[k] = xr, yr
		a0 += xr * xr
		b0 += yr * yr
		g0 += xr * yn[k]
	}
	return a0 + a1, b0 + b1, g0 + g1
}

// rotateGramGeneric is rotateGramNextGeneric without a lookahead column (the last pair of
// a row): rotation application plus updated norms in one pass.
//
//jacobi:noalloc
func rotateGramGeneric(c, s float64, x, y []float64) (a, b float64) {
	y = y[:len(x)]
	var a0, a1, b0, b1 float64
	k := 0
	for ; k+2 <= len(x); k += 2 {
		xi0, yi0 := x[k], y[k]
		xr0 := c*xi0 - s*yi0
		yr0 := s*xi0 + c*yi0
		x[k], y[k] = xr0, yr0
		a0 += xr0 * xr0
		b0 += yr0 * yr0
		xi1, yi1 := x[k+1], y[k+1]
		xr1 := c*xi1 - s*yi1
		yr1 := s*xi1 + c*yi1
		x[k+1], y[k+1] = xr1, yr1
		a1 += xr1 * xr1
		b1 += yr1 * yr1
	}
	for ; k < len(x); k++ {
		xi, yi := x[k], y[k]
		xr := c*xi - s*yi
		yr := s*xi + c*yi
		x[k], y[k] = xr, yr
		a0 += xr * xr
		b0 += yr * yr
	}
	return a0 + a1, b0 + b1
}

// RotatePairFused orthogonalizes the working pair (ai, aj), applies the same
// rotation to the factor pair (ui, uj), and records convergence information
// — the standalone fused rotation kernel: one fused Gram pass, one fused
// application per matrix. It is the fused counterpart of RotatePairRef and
// the subject of the package's fuzz target.
//
//jacobi:noalloc
func RotatePairFused(ai, aj, ui, uj []float64, conv *Conv) {
	alpha, beta, gamma := Gram(ai, aj)
	rel := RelOff(alpha, beta, gamma)
	if rel <= SkipEps {
		conv.Observe(rel, gamma, false)
		return
	}
	r := ComputeRotation(alpha, beta, gamma)
	applyPair(r.C, r.S, ai, aj)
	applyPair(r.C, r.S, ui, uj)
	conv.Observe(rel, gamma, true)
}

// Scratch is a worker's reusable kernel state: the column-norm buffers of
// the fused pairings. A Scratch grows to the widest pairing it has seen and
// is then allocation-free; each engine worker owns one and reuses it across
// every pairing of every sweep. The zero value is ready to use. A Scratch
// must not be used concurrently.
type Scratch struct {
	alpha []float64
	beta  []float64
}

// norms returns the two norm buffers sized to (nx, ny), growing the backing
// arrays only when a wider pairing arrives.
//
//jacobi:noalloc
func (sc *Scratch) norms(nx, ny int) (ax, by []float64) {
	if cap(sc.alpha) < nx {
		//lint:allow noallochot amortized grow-once: zero allocs once the widest pairing was seen
		sc.alpha = make([]float64, nx)
	}
	if cap(sc.beta) < ny {
		//lint:allow noallochot amortized grow-once: zero allocs once the widest pairing was seen
		sc.beta = make([]float64, ny)
	}
	return sc.alpha[:nx], sc.beta[:ny]
}

// Cross rotates every (xa[i], ya[j]) pair — the fused block pairing. xa/ya
// are the two blocks' working columns, xu/yu the corresponding factor
// columns. The pair order (i outer, j inner) and the skip rule are exactly
// the reference path's, so the fused pairing visits identical pairs; only
// the summation order differs (see the package ulp bound).
//
//jacobi:noalloc
func (sc *Scratch) Cross(xa, xu, ya, yu [][]float64, conv *Conv) {
	nx, ny := len(xa), len(ya)
	if nx == 0 || ny == 0 {
		return
	}
	ax, by := sc.norms(nx, ny)
	for i, x := range xa {
		ax[i] = SqNorm(x)
	}
	for j, y := range ya {
		by[j] = SqNorm(y)
	}
	for i := 0; i < nx; i++ {
		x, u := xa[i], xu[i]
		g := GammaDot(x, ya[0])
		for j := 0; j < ny; j++ {
			y := ya[j]
			alpha, beta, gamma := ax[i], by[j], g
			rel := RelOff(alpha, beta, gamma)
			if rel <= SkipEps {
				conv.Observe(rel, gamma, false)
				if j+1 < ny {
					g = GammaDot(x, ya[j+1])
				}
				continue
			}
			r := ComputeRotation(alpha, beta, gamma)
			if j+1 < ny {
				ax[i], by[j], g = rotateGramNext(r.C, r.S, x, y, ya[j+1])
			} else {
				ax[i], by[j] = rotateGram(r.C, r.S, x, y)
			}
			applyPair(r.C, r.S, u, yu[j])
			conv.Observe(rel, gamma, true)
		}
	}
}

// Within rotates every column pair inside one block, in ascending (i, j)
// order — the fused intra-block pairing. One norm buffer serves both sides
// of each pair; rotations update both entries in the fused pass.
//
//jacobi:noalloc
func (sc *Scratch) Within(a, u [][]float64, conv *Conv) {
	n := len(a)
	if n < 2 {
		return
	}
	nm, _ := sc.norms(n, 0)
	for i, x := range a {
		nm[i] = SqNorm(x)
	}
	for i := 0; i < n-1; i++ {
		x, xu := a[i], u[i]
		g := GammaDot(x, a[i+1])
		for j := i + 1; j < n; j++ {
			y := a[j]
			alpha, beta, gamma := nm[i], nm[j], g
			rel := RelOff(alpha, beta, gamma)
			if rel <= SkipEps {
				conv.Observe(rel, gamma, false)
				if j+1 < n {
					g = GammaDot(x, a[j+1])
				}
				continue
			}
			r := ComputeRotation(alpha, beta, gamma)
			if j+1 < n {
				nm[i], nm[j], g = rotateGramNext(r.C, r.S, x, y, a[j+1])
			} else {
				nm[i], nm[j] = rotateGram(r.C, r.S, x, y)
			}
			applyPair(r.C, r.S, xu, u[j])
			conv.Observe(rel, gamma, true)
		}
	}
}
