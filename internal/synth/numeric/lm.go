package numeric

import (
	"math"
	"math/cmplx"

	"github.com/guoq-dev/guoq/internal/linalg"
)

// Levenberg–Marquardt polish for template parameters. Coordinate ascent
// (solve.go) converges linearly and its rate approaches 1 on
// ill-conditioned instances, plateauing around 1e-4..1e-6; LM on the
// phase-aligned residuals converges quadratically near the optimum and
// finishes the job down to ~1e-12. The combination — global progress from
// coordinate ascent, terminal convergence from LM — is what lets the
// synthesizer honor ε budgets as tight as 1e-10.

// residuals writes the stacked real/imaginary parts of
// e^{-iφ}·U(params) − target into out, with φ the aligning phase.
func (t *Template) residuals(target linalg.Matrix, params []float64, out []float64) {
	u := t.unitaryScratch(params)
	tr := linalg.TraceAdjointMul(target, u)
	ph := cmplx.Exp(complex(0, -cmplx.Phase(tr)))
	for i, v := range u.Data {
		d := ph*v - target.Data[i]
		out[2*i] = real(d)
		out[2*i+1] = imag(d)
	}
}

// PolishLM refines params in place with Levenberg–Marquardt, returning the
// achieved HS distance. The Jacobian is numeric (forward differences):
// templates have tens of parameters and 4×4/8×8 unitaries, and each column
// is one allocation-free evaluation of the template in its scratch.
func (t *Template) PolishLM(target linalg.Matrix, params []float64, maxIter int, tol float64) float64 {
	p := t.nparam
	if p == 0 {
		return t.Distance(target, params)
	}
	m := 2 * target.N * target.N
	r := make([]float64, m)
	rTrial := make([]float64, m)
	jac := make([]float64, m*p)
	jtj := make([]float64, p*p)
	jtr := make([]float64, p)
	sys := make([]float64, p*p)
	delta := make([]float64, p)
	trial := make([]float64, p)

	cost := func(res []float64) float64 {
		var s float64
		for _, v := range res {
			s += v * v
		}
		return s
	}

	t.residuals(target, params, r)
	cur := cost(r)
	lambda := 1e-3
	const h = 1e-7

	for iter := 0; iter < maxIter; iter++ {
		if t.Distance(target, params) <= tol {
			break
		}
		// Numeric Jacobian.
		for j := 0; j < p; j++ {
			old := params[j]
			params[j] = old + h
			t.residuals(target, params, rTrial)
			params[j] = old
			for i := 0; i < m; i++ {
				jac[i*p+j] = (rTrial[i] - r[i]) / h
			}
		}
		// Normal equations JᵀJ, Jᵀr.
		for a := 0; a < p; a++ {
			jtr[a] = 0
			for b := a; b < p; b++ {
				var s float64
				for i := 0; i < m; i++ {
					s += jac[i*p+a] * jac[i*p+b]
				}
				jtj[a*p+b] = s
				jtj[b*p+a] = s
			}
			var s float64
			for i := 0; i < m; i++ {
				s += jac[i*p+a] * r[i]
			}
			jtr[a] = s
		}
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			// (JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr
			copy(sys, jtj)
			for a := 0; a < p; a++ {
				d := jtj[a*p+a]
				if d < 1e-12 {
					d = 1e-12
				}
				sys[a*p+a] += lambda * d
			}
			for a := 0; a < p; a++ {
				delta[a] = -jtr[a]
			}
			if !linalg.SolveReal(sys, delta, p) {
				lambda *= 10
				continue
			}
			for a := 0; a < p; a++ {
				trial[a] = params[a] + delta[a]
			}
			t.residuals(target, trial, rTrial)
			if c := cost(rTrial); c < cur {
				copy(params, trial)
				copy(r, rTrial)
				cur = c
				lambda = math.Max(lambda/4, 1e-12)
				improved = true
				break
			}
			lambda *= 10
		}
		if !improved {
			break
		}
	}
	return t.Distance(target, params)
}
