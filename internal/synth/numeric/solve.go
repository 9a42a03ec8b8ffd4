package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Rotosolve-style exact coordinate ascent on the Hilbert–Schmidt overlap.
//
// For a template U = G_{k−1} ··· G_0 of sites and target A, the normalized
// overlap is τ = Tr(A†·U)/N and Δ = sqrt(1 − |τ|²). With every other site
// fixed, Tr(A†·U) = Tr(W·(g ⊗ I)·R) for the partial products W = A†·G_{k−1}
// ··· G_{j+1} and R = G_{j−1} ··· G_0 around a U3 site j with 2×2 matrix g.
// It is linear in g:
//
//	f(g) = Σ_{x,y} T[x][y]·g[x][y],  T[x][y] = Σ_l Σ_i W[i][l_x]·R[l_y][i],
//
// where l runs over the row indices with the site's qubit bit clear and l_x
// sets that bit to x. T is the site's environment: four sums over d×d
// blocks, read once per site and sweep.
//
// Each angle of g = Rz(φ)·Ry(θ)·Rz(λ) enters as a Pauli rotation
// cos(α/2)·I − i·sin(α/2)·P, so with the others fixed f = a·cos(α/2) +
// b·sin(α/2). |a·cos x + b·sin x|² is a sinusoid in 2x, so the maximizing
// angle has the closed form α* = atan2(C, A−B) with A = |a|², B = |b|²,
// C = 2·Re(a·conj(b)). The three angles are updated in execution order,
// each from the environment and the site's other two angles, writing
// p = e^{−iφ/2}, q = e^{−iλ/2}, c = cos(θ/2) and s = sin(θ/2) for their
// current values:
//
//	λ: k₀ = c·p·T[0][0] + s·p̄·T[1][0],  k₁ = c·p̄·T[1][1] − s·p·T[0][1],
//	   a = k₀ + k₁,  b = i·(k₁ − k₀);
//	θ: a = p·q·T[0][0] + p̄·q̄·T[1][1],  b = p̄·q·T[1][0] − p·q̄·T[0][1];
//	φ: h₀ = c·q·T[0][0] − s·q̄·T[0][1],  h₁ = c·q̄·T[1][1] + s·q·T[1][0],
//	   a = h₀ + h₁,  b = i·(h₁ − h₀).
//
// These are the coefficients a = Tr(L·R), b = Tr(L·(−iP)·R) of each
// rotation taken alone, with L the rest of the template around it, so the
// iterates are those of ascent over the rotations one by one. Each update
// monotonically increases |τ|, and so does each sweep.

// Distance returns the HS distance of the instantiated template from the
// target (given as the target itself, not its adjoint).
func (t *Template) Distance(target linalg.Matrix, params []float64) float64 {
	return linalg.HSDistance(target, t.unitaryScratch(params))
}

// sweep performs one coordinate-ascent pass over all parameters, returning
// the final |τ|. adj is the target's adjoint. When it returns, t.r holds
// U(params) for the updated params.
//
// Site j needs W_j = A†·G_{k−1}···G_{j+1} and the prefix R = G_{j−1}···G_0
// with the angles already updated. The sweep stores the transposes W_jᵀ,
// built back to front by W_{j−1}ᵀ = G_jᵀ·W_jᵀ, so both passes are row
// operations, and each environment entry T[x][y] is a sum of elementwise
// products of rows of W_jᵀ and R. That is O(d²) per site, and the sweep
// allocates nothing once the scratch exists.
//
//guoq:hotpath
func (t *Template) sweep(adj linalg.Matrix, params []float64) float64 {
	t.ensureScratch()
	d := 1 << t.N
	dd := d * d
	k := len(t.Sites)
	w, r := t.w, t.r
	// Backward pass, with the angles the sweep starts from: W_{k−1}ᵀ =
	// (A†)ᵀ, cxᵀ = cx, and gᵀ = [[a, b], [−b̄, ā]] for g = [[a, −b̄], [b, ā]].
	last := w[(k-1)*dd:]
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			last[j*d+i] = adj.Data[i*d+j]
		}
	}
	// The starting angles' half-angle factors serve both the backward pass
	// and each site's λ update, which reads θ and φ as they were.
	pi := 0
	for i, s := range t.Sites {
		if !s.cx {
			t.h[i] = halvesOf(params[pi], params[pi+1], params[pi+2])
			pi += 3
		}
	}
	for i := k - 1; i > 0; i-- {
		s := t.Sites[i]
		dst, src := w[(i-1)*dd:i*dd], w[i*dd:(i+1)*dd]
		if s.cx {
			t.apply(s, dst, src)
			continue
		}
		a, b := t.h[i].su2()
		rotate(dst, src, d, t.mask(s.q[0]), a, complex(-real(b), imag(b)))
	}
	// Forward pass: read each U3 site's environment, set its three angles
	// to their optima in turn, then fold the site into R.
	setIdentity(r, d)
	pi = 0
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
		ang := params[pi : pi+3]
		pi += 3
		h := t.h[i]
		c, sn := complex(h.c, 0), complex(h.s, 0)
		p, pb := h.p, cmplx.Conj(h.p)
		// λ.
		k0 := c*p*t00 + sn*pb*t10
		k1 := c*pb*t11 - sn*p*t01
		ang[0] = rotosolve(k0+k1, mulI(k1-k0))
		sl, cl := math.Sincos(ang[0] / 2)
		h.q = complex(cl, -sl)
		q, qb := h.q, cmplx.Conj(h.q)
		// θ.
		ang[1] = rotosolve(p*q*t00+pb*qb*t11, pb*q*t10-p*qb*t01)
		h.s, h.c = math.Sincos(ang[1] / 2)
		c, sn = complex(h.c, 0), complex(h.s, 0)
		// φ.
		h0 := c*q*t00 - sn*qb*t01
		h1 := c*qb*t11 + sn*q*t10
		a, b := h0+h1, mulI(h1-h0)
		ang[2] = rotosolve(a, b)
		sp, cp := math.Sincos(ang[2] / 2)
		h.p = complex(cp, -sp)
		// |τ| at the optimum of the site's last coordinate.
		tau = cmplx.Abs(complex(cp, 0)*a+complex(sp, 0)*b) / float64(d)
		ga, gb := h.su2()
		rotate(r, r, d, mask, ga, gb)
	}
	return tau
}

// rotosolve returns the angle α maximizing |a·cos(α/2) + b·sin(α/2)|.
func rotosolve(a, b complex128) float64 {
	A := real(a)*real(a) + imag(a)*imag(a)
	B := real(b)*real(b) + imag(b)*imag(b)
	C := 2 * (real(a)*real(b) + imag(a)*imag(b))
	return math.Atan2(C, A-B)
}

// mulI returns i·z.
func mulI(z complex128) complex128 { return complex(-imag(z), real(z)) }

// Optimize runs coordinate ascent from each initial parameter vector (plus
// zero and random restarts up to `restarts` total starts), stopping early on
// success or stall. It returns the best parameters and the achieved HS
// distance.
//
// Convergence is linear (≈0.85 contraction per sweep near the optimum), so
// reaching the 1e-9..1e-10 distances needed for tight ε budgets takes a few
// hundred sweeps; the stall detector cuts hopeless starts quickly. Note the
// raw overlap |τ| saturates at 1 within float64 long before the distance
// bottoms out, so progress is tracked with the accurate HSDistance, not τ.
func (t *Template) Optimize(target linalg.Matrix, inits [][]float64, restarts, maxSweeps int, tol float64, deadline time.Time) ([]float64, float64) {
	adj := linalg.Adjoint(target)
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

	best := make([]float64, t.nparam)
	bestDist := math.Inf(1)
	for _, init := range starts {
		params := make([]float64, t.nparam)
		copy(params, init)
		lastDist := math.Inf(1)
		stall := 0
		for s := 0; s < maxSweeps; s++ {
			t.sweep(adj, params)
			if s%5 == 4 || s == maxSweeps-1 {
				d := linalg.HSDistance(target, linalg.Matrix{N: target.N, Data: t.r})
				if d < bestDist {
					bestDist = d
					copy(best, params)
				}
				if d <= tol {
					return best, bestDist
				}
				if d > lastDist*0.995 {
					stall++
					if stall >= 3 {
						break
					}
				} else {
					stall = 0
				}
				lastDist = d
				if !deadline.IsZero() && time.Now().After(deadline) {
					return best, bestDist
				}
			}
		}
		// Terminal convergence: coordinate ascent plateaus with a linear
		// rate near 1 on ill-conditioned instances; Levenberg–Marquardt
		// finishes quadratically from anywhere in the basin.
		if d := t.Distance(target, params); d < 5e-2 {
			d = t.PolishLM(target, params, 40, tol)
			if d < bestDist {
				bestDist = d
				copy(best, params)
			}
			if bestDist <= tol {
				return best, bestDist
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
	}
	return best, bestDist
}
