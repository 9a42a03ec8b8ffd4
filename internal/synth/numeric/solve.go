package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/linalg"
)

// Rotosolve-style exact coordinate ascent on the Hilbert–Schmidt overlap.
//
// For a template U(θ) = M_k ··· M_1 and target A, the normalized overlap is
// τ = Tr(A†·U)/N and Δ = sqrt(1 − |τ|²). Every parameterized element is a
// Pauli rotation M_p(θ) = cos(θ/2)·I − i·sin(θ/2)·P, so with all other
// angles fixed
//
//	Tr(A†·U) = a·cos(θ/2) + b·sin(θ/2)
//
// with a = Tr(L·R) and b = Tr(L·(−iP)·R) for the partial products L, R
// around position p. |a·cos x + b·sin x|² is a sinusoid in 2x, so the
// maximizing θ has the closed form θ* = atan2(C, A−B) with A = |a|²,
// B = |b|², C = 2·Re(a·conj(b)). Each sweep monotonically increases |τ|.

// Distance returns the HS distance of the instantiated template from the
// target (given as the target itself, not its adjoint).
func (t *Template) Distance(target linalg.Matrix, params []float64) float64 {
	return linalg.HSDistance(target, t.unitaryScratch(params))
}

// sweep performs one coordinate-ascent pass over all parameters, returning
// the final |τ|. adj is the target's adjoint. When it returns, t.r holds
// U(params) for the updated params.
//
// Element i needs W_i = A†·S[i+1], where S[i+1] = M_{k−1}···M_{i+1} is
// the product of the elements after it, and the prefix R = M_{i−1}···M_0
// with the angles already updated: a = Tr(W_i·R), b = Tr(W_i·(−iP)·R).
// The sweep stores the transposes W_iᵀ, built back to front by
// W_{i−1}ᵀ = M_iᵀ·W_iᵀ, so both passes are the row operations of apply
// and each coefficient is an elementwise sum over one d×d block. That is
// O(d²) per element, and the sweep allocates nothing once the scratch
// exists.
//
//guoq:hotpath
func (t *Template) sweep(adj linalg.Matrix, params []float64) float64 {
	t.ensureScratch()
	d := 1 << t.N
	dd := d * d
	k := len(t.Elems)
	w, r := t.w, t.r
	// Backward pass, with the angles the sweep starts from: W_{k−1}ᵀ =
	// (A†)ᵀ, and rzᵀ = rz, cxᵀ = cx, ry(θ)ᵀ = ry(−θ).
	last := w[(k-1)*dd:]
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			last[j*d+i] = adj.Data[i*d+j]
		}
	}
	pi := t.nparam
	for i := k - 1; i > 0; i-- {
		e := t.Elems[i]
		c, s := 1.0, 0.0
		if !e.fixed {
			pi--
			s, c = math.Sincos(params[pi] / 2)
			if e.name == gate.Ry {
				s = -s
			}
		}
		t.apply(e, c, s, w[(i-1)*dd:i*dd], w[i*dd:(i+1)*dd])
	}
	// Forward pass: set each angle to its optimum given R, then fold the
	// element into R.
	setIdentity(r, d)
	pi = 0
	var a, b complex128
	var c, s float64
	for i, e := range t.Elems {
		if e.fixed {
			t.apply(e, 1, 0, r, r)
			continue
		}
		wt := w[i*dd : (i+1)*dd]
		mask := 1 << linalg.BitPos(t.N, e.qubits[0])
		rz := e.name == gate.Rz
		// Row l of (−iP)·R is −i·R[l] or +i·R[l] for rz, by bit q of l;
		// for ry it is −R[l|q] on the 0 row and R[l&^q] on the 1 row.
		a, b = 0, 0
		for l := 0; l < d; l++ {
			if l&mask != 0 {
				continue
			}
			w0, w1 := rowPair(wt, d, l, mask)
			r0, r1 := rowPair(r, d, l, mask)
			var t00, t11 complex128
			for j, v := range w0 {
				t00 += v * r0[j]
				t11 += w1[j] * r1[j]
			}
			a += t00 + t11
			if rz {
				b += complex(0, 1) * (t11 - t00)
				continue
			}
			var t01, t10 complex128
			for j, v := range w0 {
				t01 += v * r1[j]
				t10 += w1[j] * r0[j]
			}
			b += t10 - t01
		}
		A := real(a)*real(a) + imag(a)*imag(a)
		B := real(b)*real(b) + imag(b)*imag(b)
		C := 2 * (real(a)*real(b) + imag(a)*imag(b))
		theta := math.Atan2(C, A-B)
		params[pi] = theta
		pi++
		s, c = math.Sincos(theta / 2)
		t.apply(e, c, s, r, r)
	}
	// |τ| at the optimum of the last coordinate.
	return cmplx.Abs(complex(c, 0)*a+complex(s, 0)*b) / float64(d)
}

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
