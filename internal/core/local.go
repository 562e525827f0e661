package core

import (
	"math"
	"math/cmplx"
)

// coeffSecondDerivs returns the second partial derivatives of b1 and b2 with
// respect to h and k, companion to coeffDerivs (same k-scaled repeater
// parametrization).
func (p Problem) coeffSecondDerivs(h, k float64) (b1hh, b1hk, b1kk, b2hh, b2hk, b2kk float64) {
	r, l, c := p.Line.R, p.Line.L, p.Line.C
	rs, c0, cp := p.Device.Rs, p.Device.C0, p.Device.Cp

	b1hh = r * c
	b1hk = -rs*c/(k*k) + c0*r
	b1kk = 2 * rs * c * h / (k * k * k)

	// b2 expanded: l·c·h²/2 + r²c²h⁴/24 + rs(cp+c0)·r·c·h²/2
	//   + rs·r·c²·h³/(6k) + c0·r²·c·h³·k/6 + c0·l·h·k + rs·cp·c0·r·h·k.
	b2hh = l*c + r*r*c*c*h*h/2 + rs*(cp+c0)*r*c + rs*r*c*c*h/k + c0*r*r*c*h*k
	b2hk = -rs*r*c*c*h*h/(2*k*k) + c0*r*r*c*h*h/2 + c0*l + rs*cp*c0*r
	b2kk = rs * r * c * c * h * h * h / (3 * k * k * k)
	return
}

// local is the local model of the delay-per-length objective φ = τ/h at one
// design point x = (h, k): the poles with their first derivatives, and the
// delay τ. Everything follows from the delay equation multiplied through by
// (s2 − s1),
//
//	E(τ; s1, s2) = (1−f)(s2−s1) − s2·e^(s1τ) + s1·e^(s2τ) = 0,
//
// which defines τ(h, k) implicitly: τ_i = −E_i/E_τ. The paper's Eqs. (7)–(8)
// are g1 = E_h + (τ/h)·E_τ and g2 = E_k, i.e. g = −E_τ·h·∇φ.
type local struct {
	h, k, tau, f float64
	s            [2]complex128    // s1, s2
	ds           [2][2]complex128 // ds[a][i] = ∂s_a/∂x_i
}

// localAt solves the delay at (h, k) and builds the local model there. It
// errors inside the critical-damping band, where the pole derivatives are
// singular; that check comes first, so such a point costs no delay solve.
func (p Problem) localAt(h, k float64) (local, error) {
	s1, s2, ds1h, ds1k, ds2h, ds2k, err := p.poleDerivs(h, k)
	if err != nil {
		return local{}, err
	}
	_, d, err := p.Eval(h, k)
	if err != nil {
		return local{}, err
	}
	return local{
		h: h, k: k, tau: d.Tau, f: p.threshold(),
		s:  [2]complex128{s1, s2},
		ds: [2][2]complex128{{ds1h, ds1k}, {ds2h, ds2k}},
	}, nil
}

// eTerms holds the exponentials and the first partials of E in
// (s1, s2, τ), and E_x, the partials in x at fixed τ.
type eTerms struct {
	e1, e2     complex128
	E1, E2, Et complex128
	Ex         [2]complex128
}

func (l *local) eTerms() eTerms {
	s1, s2 := l.s[0], l.s[1]
	tau := complex(l.tau, 0)
	t := eTerms{e1: cmplx.Exp(s1 * tau), e2: cmplx.Exp(s2 * tau)}
	onemf := complex(1-l.f, 0)
	t.E1 = -onemf - s2*tau*t.e1 + t.e2
	t.E2 = onemf - t.e1 + s1*tau*t.e2
	t.Et = s1 * s2 * (t.e2 - t.e1)
	for i := range t.Ex {
		t.Ex[i] = t.E1*l.ds[0][i] + t.E2*l.ds[1][i]
	}
	return t
}

// residuals returns the stationarity residuals the Newton path drives to
// zero: the paper's g1 and g2 divided by their common factor (s2 − s1).
//
// E, and with it every g, vanishes identically when s1 = s2, so (g1, g2)
// has a spurious zero at every point of the critical-damping manifold, and
// a Newton iterate crossing it can settle there although τ/h is not
// stationary. Dividing by (s2 − s1) removes exactly that factor. It also
// makes the residual real in both regimes: for a conjugate pair g has the
// form z − z̄ and s2 − s1 is imaginary.
func (l *local) residuals() (r1, r2 float64) {
	t := l.eTerms()
	d := l.s[1] - l.s[0]
	g1 := t.Ex[0] + complex(l.tau/l.h, 0)*t.Et
	return real(g1 / d), real(t.Ex[1] / d)
}

// gradPhi returns ∇φ = (τ_h/h − τ/h², τ_k/h).
func (l *local) gradPhi() [2]float64 {
	t := l.eTerms()
	th := real(-t.Ex[0] / t.Et)
	tk := real(-t.Ex[1] / t.Et)
	return [2]float64{th/l.h - l.tau/(l.h*l.h), tk / l.h}
}

// relGrad returns max(|h·∂φ/∂h|, |k·∂φ/∂k|)/φ: the log-space gradient of
// the objective relative to its value.
func (l *local) relGrad() float64 {
	g := l.gradPhi()
	return math.Max(math.Abs(l.h*g[0]), math.Abs(l.k*g[1])) / (l.tau / l.h)
}

// secondOrder returns the analytic Jacobian jac[i][j] = ∂r_i/∂x_j of the
// residuals and the Hessian hess[i][j] = ∂²φ/∂x_i∂x_j, with x = (h, k).
// It differentiates E(x, τ(x)) along the solution manifold,
// d/dx_j = ∂/∂x_j + τ_j·∂/∂τ, using the pole second derivatives; this is
// the paper's derivative route (coefficients → poles → Eq. (3)) taken one
// order further.
func (p Problem) secondOrder(l *local) (jac, hess [2][2]float64) {
	h, k := l.h, l.k
	b1, b2, db1h, db1k, db2h, db2k := p.coeffDerivs(h, k)
	b1hh, b1hk, b1kk, b2hh, b2hk, b2kk := p.coeffSecondDerivs(h, k)
	bd := [2][2]complex128{ // bd[c][i] = ∂b_c/∂x_i
		{complex(db1h, 0), complex(db1k, 0)},
		{complex(db2h, 0), complex(db2k, 0)},
	}
	bdd := [2][2][2]complex128{ // bdd[c][i][j] = ∂²b_c/∂x_i∂x_j
		{{complex(b1hh, 0), complex(b1hk, 0)}, {complex(b1hk, 0), complex(b1kk, 0)}},
		{{complex(b2hh, 0), complex(b2hk, 0)}, {complex(b2hk, 0), complex(b2kk, 0)}},
	}

	// Pole second derivatives from 1 + b1·s + b2·s² = 0 differentiated twice:
	// (2b2·s + b1)·s_ij = −[(2b2_j·s + 2b2·s_j + b1_j)·s_i
	//                      + (2b2_i·s + b1_i)·s_j + b2_ij·s² + b1_ij·s].
	cb1, cb2 := complex(b1, 0), complex(b2, 0)
	var d2s [2][2][2]complex128
	for a, s := range l.s {
		den := 2*cb2*s + cb1
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				si, sj := l.ds[a][i], l.ds[a][j]
				num := (2*bd[1][j]*s+2*cb2*sj+bd[0][j])*si + (2*bd[1][i]*s+bd[0][i])*sj +
					bdd[1][i][j]*s*s + bdd[0][i][j]*s
				d2s[a][i][j] = -num / den
			}
		}
	}

	s1, s2 := l.s[0], l.s[1]
	tau := complex(l.tau, 0)
	t := l.eTerms()
	e1, e2 := t.e1, t.e2
	// Second partials of E in (s1, s2, τ).
	E11 := -s2 * tau * tau * e1
	E12 := tau * (e2 - e1)
	E22 := s1 * tau * tau * e2
	E1t := s2 * (e2 - e1 - s1*tau*e1)
	E2t := s1 * (e2 - e1 + s2*tau*e2)
	Ett := s1 * s2 * (s2*e2 - s1*e1)

	var Ext, taux [2]complex128 // ∂²E/∂x_i∂τ and τ_i
	var Exx [2][2]complex128    // ∂²E/∂x_i∂x_j at fixed τ
	for i := 0; i < 2; i++ {
		Ext[i] = E1t*l.ds[0][i] + E2t*l.ds[1][i]
		taux[i] = -t.Ex[i] / t.Et
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s1i, s1j, s2i, s2j := l.ds[0][i], l.ds[0][j], l.ds[1][i], l.ds[1][j]
			Exx[i][j] = E11*s1i*s1j + E12*(s1i*s2j+s2i*s1j) + E22*s2i*s2j +
				t.E1*d2s[0][i][j] + t.E2*d2s[1][i][j]
		}
	}

	// Residuals r = g/(s2 − s1) with g1 = E_h + (τ/h)·E_τ, g2 = E_k.
	ch := complex(h, 0)
	d := s2 - s1
	g := [2]complex128{t.Ex[0] + tau/ch*t.Et, t.Ex[1]}
	for j := 0; j < 2; j++ {
		dg1 := Exx[0][j] + Ext[0]*taux[j] + taux[j]/ch*t.Et + tau/ch*(Ext[j]+Ett*taux[j])
		if j == 0 {
			dg1 -= tau / (ch * ch) * t.Et
		}
		dg := [2]complex128{dg1, Exx[1][j] + Ext[1]*taux[j]}
		dd := l.ds[1][j] - l.ds[0][j]
		for i := 0; i < 2; i++ {
			jac[i][j] = real((dg[i] - g[i]*dd/d) / d)
		}
	}

	// τ_ij from E(x, τ(x)) = 0 differentiated twice; the ratios are real
	// (numerator and E_τ are both real, or both of the form z − z̄).
	var tauxx [2][2]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			tauxx[i][j] = real(-(Exx[i][j] + Ext[i]*taux[j] + Ext[j]*taux[i] + Ett*taux[i]*taux[j]) / t.Et)
		}
	}
	th, tk := real(taux[0]), real(taux[1])
	hess[0][0] = tauxx[0][0]/h - 2*th/(h*h) + 2*l.tau/(h*h*h)
	hess[0][1] = tauxx[0][1]/h - tk/(h*h)
	hess[1][0] = hess[0][1]
	hess[1][1] = tauxx[1][1] / h
	return jac, hess
}

// logHessianPD reports whether the Hessian of φ in (log h, log k),
//
//	H_uu = h²φ_hh + hφ_h,  H_uw = hk·φ_hk,  H_ww = k²φ_kk + kφ_k,
//
// is positive definite, given the (h, k) Hessian hess.
func (l *local) logHessianPD(hess [2][2]float64) bool {
	h, k := l.h, l.k
	g := l.gradPhi()
	huu := h*h*hess[0][0] + h*g[0]
	huw := h * k * hess[0][1]
	hww := k*k*hess[1][1] + k*g[1]
	return huu > 0 && hww > 0 && huu*hww-huw*huw > 0
}

// certGradTol bounds max(|h·∂φ/∂h|, |k·∂φ/∂k|)/φ, φ = τ/h, at a certified
// Newton optimum. Converged optima sit at ≤2e-10 on the 0–5 nH/mm lattice,
// iterates that ran off towards k → ∞ at ~1.
const certGradTol = 1e-6

// certify reports whether the local model's point is a strict local minimum
// of φ = τ/h: its log-space gradient vanishes to certGradTol and its Hessian
// in (log h, log k) is positive definite.
func (p Problem) certify(l *local) bool {
	if l.relGrad() > certGradTol {
		return false
	}
	_, hess := p.secondOrder(l)
	return l.logHessianPD(hess)
}
