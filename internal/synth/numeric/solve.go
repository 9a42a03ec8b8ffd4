package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Exact site-by-site ascent on the Hilbert–Schmidt overlap.
//
// For a template U = G_{k−1} ··· G_0 of sites and target A, the normalized
// overlap is τ = Tr(A†·U)/N and Δ = sqrt(1 − |τ|²). With every other site
// fixed, Tr(A†·U) = Tr(W·(g ⊗ I)·R) for the partial products W = A†·G_{k−1}
// ··· G_{j+1} and R = G_{j−1} ··· G_0 around a U3 site j with 2×2 matrix g.
// It is linear in g:
//
//	f(g) = Σ_{x,y} T[x][y]·g[x][y] = Tr(M†·g),  M = conj(T),
//	T[x][y] = Σ_l Σ_i W[i][l_x]·R[l_y][i],
//
// where l runs over the row indices with the site's qubit bit clear and l_x
// sets that bit to x. T is the site's environment: four sums over d×d
// blocks, read once per site and sweep.
//
// Over all unitary g, |Tr(M†·g)| is at most the nuclear norm σ₁+σ₂ of M,
// reached at its polar factor Q = U·V† for M = U·Σ·V†: the Evenbly–Vidal
// environment update. A 2×2 polar factor has a closed form. With z =
// det M/|det M| (1 when det M = 0) and adj(M) the adjugate,
//
//	P = M + z·adj(M)† = U·diag(σ₁+σ₂, σ₂+σ₁)·V† = (σ₁+σ₂)·Q,  det Q = z,
//
// since z·adj(M)† = U·diag(σ₂, σ₁)·V†. So every column of P has norm n =
// σ₁+σ₂. When det M = 0 the same P is n times a unitary of determinant 1.
// A global phase leaves |f| alone, so the SU(2) optimum is g = Q·conj(√z),
// whose first column is (a, b) = (P₀₀, P₁₀)·conj(√z)/n with the principal
// root √z = (1+z)/|1+z| (√−1 = i). In terms of T,
//
//	P₀₀ = conj(T[0][0]) + z·T[1][1],  P₁₀ = conj(T[1][0]) − z·T[0][1],
//	z = conj(det T)/|det T|.
//
// When n = 0, M = 0: every g is optimal and the site keeps its value. Each
// site update is exact, so no sweep lowers |τ|, and after the last site
// |τ| = n/N. The sweep takes no sine, cosine or arctangent: the sites are
// SU(2) pairs from one start to its end, and angles are read out only at
// the edges of Optimize.

// Distance returns the HS distance of the instantiated template from the
// target (given as the target itself, not its adjoint).
func (t *Template) Distance(target linalg.Matrix, params []float64) float64 {
	return linalg.HSDistance(target, t.unitaryScratch(params))
}

// setTarget writes the target block W_{k−1}ᵀ = (A†)ᵀ, which no sweep
// overwrites, from the target's adjoint adj.
func (t *Template) setTarget(adj linalg.Matrix) {
	t.ensureScratch()
	d := 1 << t.N
	last := t.w[(len(t.Sites)-1)*d*d:]
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			last[j*d+i] = adj.Data[i*d+j]
		}
	}
}

// loadAngles sets every U3 site's SU(2) pair from its angles in params,
// after setTarget has allocated the scratch.
func (t *Template) loadAngles(params []float64) {
	pi := 0
	for i, s := range t.Sites {
		if !s.cx {
			t.g[i] = u3(params[pi], params[pi+1], params[pi+2])
			pi += 3
		}
	}
}

// readAngles writes every U3 site's angles into params.
func (t *Template) readAngles(params []float64) {
	pi := 0
	for i, s := range t.Sites {
		if !s.cx {
			params[pi], params[pi+1], params[pi+2] = t.g[i].angles()
			pi += 3
		}
	}
}

// sweepSites performs one ascent pass, setting each U3 site in turn to its
// optimum, and returns the final |τ|. It reads the target block that
// setTarget wrote and the sites that loadAngles set. When it returns, t.r
// holds U for the updated sites.
//
// Site j needs W_j = A†·G_{k−1}···G_{j+1} and the prefix R = G_{j−1}···G_0
// with the sites already updated. The sweep stores the transposes W_jᵀ,
// built back to front by W_{j−1}ᵀ = G_jᵀ·W_jᵀ, so both passes are row
// operations, and each environment entry T[x][y] is a sum of elementwise
// products of rows of W_jᵀ and R. That is O(d²) per site, and the sweep
// allocates nothing.
//
//guoq:hotpath
func (t *Template) sweepSites() float64 {
	d := 1 << t.N
	dd := d * d
	w, r := t.w, t.r
	// Backward pass, with the sites the sweep starts from: cxᵀ = cx, and
	// gᵀ = [[a, b], [−b̄, ā]] for g = [[a, −b̄], [b, ā]].
	for i := len(t.Sites) - 1; i > 0; i-- {
		s := t.Sites[i]
		dst, src := w[(i-1)*dd:i*dd], w[i*dd:(i+1)*dd]
		if s.cx {
			t.apply(s, dst, src)
			continue
		}
		g := t.g[i]
		rotate(dst, src, d, t.mask(s.q[0]), g.a, complex(-real(g.b), imag(g.b)))
	}
	// Forward pass: read each U3 site's environment, move the site to its
	// optimum, then fold it into R.
	setIdentity(r, d)
	var tau float64
	for i, s := range t.Sites {
		if s.cx {
			t.apply(s, r, r)
			continue
		}
		wt := w[i*dd : (i+1)*dd]
		mask := t.mask(s.q[0])
		var t00, t01, t10, t11 complex128
		for l := 0; l < d; l++ {
			if l&mask != 0 {
				continue
			}
			w0, w1 := rowPair(wt, d, l, mask)
			r0, r1 := rowPair(r, d, l, mask)
			w1, r0, r1 = w1[:len(w0)], r0[:len(w0)], r1[:len(w0)]
			for j, v := range w0 {
				u, x, y := w1[j], r0[j], r1[j]
				t00 += v * x
				t01 += v * y
				t10 += u * x
				t11 += u * y
			}
		}
		g, n := polar(t00, t01, t10, t11)
		if n == 0 {
			g = t.g[i]
		}
		t.g[i] = g
		tau = n / float64(d)
		rotate(r, r, d, mask, g.a, g.b)
	}
	return tau
}

// polar returns the SU(2) site maximizing |Σ T[x][y]·g[x][y]| for the
// environment T, and n = σ₁+σ₂, that maximum. When n = 0 every site is
// optimal and the returned one is zero.
func polar(t00, t01, t10, t11 complex128) (su2, float64) {
	z := complex(1, 0)
	if det := t00*t11 - t01*t10; det != 0 {
		m := cmplx.Abs(det)
		z = complex(real(det)/m, -imag(det)/m)
	}
	p0 := cmplx.Conj(t00) + z*t11
	p1 := cmplx.Conj(t10) - z*t01
	n := math.Sqrt(real(p0)*real(p0) + imag(p0)*imag(p0) + real(p1)*real(p1) + imag(p1)*imag(p1))
	if n == 0 {
		return su2{}, 0
	}
	// √z = (1+z)/|1+z|. For Re z < 0 the same root is ±i·(1−z)/|1−z|,
	// which does not cancel near z = −1.
	x, y := real(z), imag(z)
	u, v := 1+x, y
	switch {
	case x >= 0:
	case y >= 0:
		u, v = y, 1-x
	default:
		u, v = -y, x-1
	}
	k := 1 / (n * math.Sqrt(u*u+v*v))
	s := complex(u*k, -v*k)
	return su2{p0 * s, p1 * s}, n
}

// Optimize runs site-by-site ascent from each initial parameter vector
// (plus zero and random restarts up to `restarts` total starts), stopping
// early on success or stall. It returns the best parameters and the
// achieved HS distance.
//
// Convergence is linear near the optimum, so reaching the 1e-9..1e-10
// distances needed for tight ε budgets can take many sweeps; a start ends
// once 3 sweeps in a row each shrink the distance by less than 0.1%, and
// Levenberg–Marquardt finishes a start that got close. The distance is
// read after every sweep, at O(d²) against the sweep's O(sites·d²). The
// raw overlap |τ| saturates at 1 within float64 long before the distance
// bottoms out, so progress is tracked with the accurate HSDistance, not τ.
func (t *Template) Optimize(target linalg.Matrix, inits [][]float64, restarts, maxSweeps int, tol float64, deadline time.Time) ([]float64, float64) {
	rng := rand.New(rand.NewSource(hashMatrix(target) ^ int64(t.nparam)))
	var starts [][]float64
	starts = append(starts, inits...)
	for len(starts) < restarts {
		p := make([]float64, t.nparam)
		if len(starts) > len(inits) { // one zero start, the rest random
			for i := range p {
				p[i] = rng.Float64()*2*math.Pi - math.Pi
			}
		}
		starts = append(starts, p)
	}

	t.setTarget(linalg.Adjoint(target))
	u := linalg.Matrix{N: target.N, Data: t.r}
	late := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }
	best := make([]float64, t.nparam)
	bestDist := math.Inf(1)
	params := make([]float64, t.nparam)
	for _, init := range starts {
		t.loadAngles(init)
		dist, slow, expired := math.Inf(1), 0, false
		for s := 0; s < maxSweeps && slow < 3 && dist > tol && !expired; s++ {
			t.sweepSites()
			d := linalg.HSDistance(target, u)
			if d > dist*(1-1e-3) {
				slow++
			} else {
				slow = 0
			}
			dist = d
			expired = late()
		}
		t.readAngles(params)
		if dist < bestDist {
			bestDist = dist
			copy(best, params)
		}
		if bestDist <= tol || expired {
			return best, bestDist
		}
		// Terminal convergence: the ascent plateaus with a linear rate
		// near 1 on ill-conditioned instances; Levenberg–Marquardt
		// finishes quadratically from anywhere in the basin.
		if dist < 5e-2 {
			d := t.PolishLM(target, params, 40, tol)
			if d < bestDist {
				bestDist = d
				copy(best, params)
			}
			if bestDist <= tol {
				return best, bestDist
			}
		}
		if late() {
			break
		}
	}
	return best, bestDist
}
