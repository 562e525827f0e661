// Package awe implements Asymptotic Waveform Evaluation: reduced-order
// pole/residue models of arbitrary order q matched to the first 2q moments
// of a transfer function. In this library it serves as the high-accuracy
// reference the paper's two-pole model is validated against — the moments of
// the exact distributed-line transfer function come from
// tline.Stage.TransferMoments, so an order-q AWE fit converges to the exact
// response as q grows (within AWE's usual numerical limits, q ≲ 10).
package awe

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"rlcint/internal/lina"
	"rlcint/internal/num"
	"rlcint/internal/poly"
	"rlcint/internal/tline"
)

// Fit is a pole/residue approximation H(s) ≈ Σ k_i/(s − p_i).
type Fit struct {
	Poles    []complex128
	Residues []complex128
}

// ErrUnstable is returned when a fit contains right-half-plane poles (a
// known failure mode of high-order AWE on ill-conditioned moment sets).
var ErrUnstable = errors.New("awe: fit has right-half-plane poles")

// FromMoments builds an order-q fit from at least 2q moments
// (m[j] = coefficient of s^j of H(s)).
//
// The denominator coefficients d solve the moment recurrence
// Σ_{i=1..q} m_{n-i}·d_i = −m_n for n = q..2q−1 (with d_0 = 1); the poles
// are the roots of D(s) = 1 + d_1 s + … + d_q s^q; the residues solve the
// complex Vandermonde system m_j = −Σ_i k_i/p_i^{j+1}, j = 0..q−1.
func FromMoments(m []float64, q int) (Fit, error) {
	if q < 1 {
		return Fit{}, fmt.Errorf("awe: order q=%d must be >= 1", q)
	}
	if len(m) < 2*q {
		return Fit{}, fmt.Errorf("awe: need %d moments for order %d, have %d", 2*q, q, len(m))
	}
	// Physical moments decay like T^j for a characteristic time T (~1e-10 s
	// here), which makes the raw Hankel system hopelessly ill-scaled in
	// float64. Normalize time by T = |m1/m0|: fit the scaled series
	// m'_j = m_j/T^j, then map back via p_i = p'_i/T, k_i = k'_i/T.
	ms, scale := NormalizeMoments(m)
	if scale != 1 {
		fit, err := FromMoments(ms, q)
		if err != nil {
			return Fit{}, err
		}
		cs := complex(scale, 0)
		for i := range fit.Poles {
			fit.Poles[i] /= cs
			fit.Residues[i] /= cs
		}
		return fit, nil
	}
	// Solve for denominator coefficients d_1..d_q.
	a := lina.NewDense(q, q)
	b := make([]float64, q)
	for row := 0; row < q; row++ {
		n := q + row
		for i := 1; i <= q; i++ {
			a.Set(row, i-1, m[n-i])
		}
		b[row] = -m[n]
	}
	d, err := lina.Solve(a, b)
	if err != nil {
		return Fit{}, fmt.Errorf("awe: singular moment matrix (order %d too high for these moments): %w", q, err)
	}
	den := make([]float64, q+1)
	den[0] = 1
	copy(den[1:], d)
	poles, err := (poly.Poly{C: den}).Roots()
	if err != nil {
		return Fit{}, fmt.Errorf("awe: pole extraction: %w", err)
	}
	// Residues from the first q moments.
	v := lina.NewZDense(q, q)
	rhs := make([]complex128, q)
	for j := 0; j < q; j++ {
		for i, p := range poles {
			v.Set(j, i, -1/cpow(p, j+1))
		}
		rhs[j] = complex(m[j], 0)
	}
	res, err := lina.ZSolve(v, rhs)
	if err != nil {
		return Fit{}, fmt.Errorf("awe: residue solve: %w", err)
	}
	return Fit{Poles: poles, Residues: res}, nil
}

// NormalizeMoments rescales a moment series onto its own characteristic
// time T = |m1/m0|, returning the scaled series m'_j = m_j/T^j and T.
// Physical transfer moments decay geometrically with the circuit time
// constant, so comparing or fitting raw series in float64 is hopelessly
// ill-scaled; both the AWE fit above and the reduced-order-model accuracy
// gate (internal/mor) compare moments in this normalized form. A series
// whose leading moments vanish is returned unchanged with T = 1.
func NormalizeMoments(m []float64) ([]float64, float64) {
	scale := 1.0
	if len(m) >= 2 && m[0] != 0 && m[1] != 0 {
		scale = math.Abs(m[1] / m[0])
	}
	if scale == 1 || scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return m, 1
	}
	ms := make([]float64, len(m))
	tj := 1.0
	for j := range m {
		ms[j] = m[j] / tj
		tj *= scale
	}
	return ms, scale
}

// FromStage fits an order-q model to the exact transfer function of the
// driver–line–load stage.
func FromStage(st tline.Stage, q int) (Fit, error) {
	m, err := st.TransferMoments(2 * q)
	if err != nil {
		return Fit{}, err
	}
	return FromMoments(m, q)
}

// Order returns the number of poles.
func (f Fit) Order() int { return len(f.Poles) }

// Stable reports whether every pole lies strictly in the left half plane.
func (f Fit) Stable() bool {
	for _, p := range f.Poles {
		if real(p) >= 0 {
			return false
		}
	}
	return true
}

// TransferAt evaluates the pole/residue approximation at s.
func (f Fit) TransferAt(s complex128) complex128 {
	sum := complex(0, 0)
	for i, p := range f.Poles {
		sum += f.Residues[i] / (s - p)
	}
	return sum
}

// DCGain returns H(0) = −Σ k_i/p_i (should be ≈1 for the paper's stages).
func (f Fit) DCGain() float64 {
	sum := complex(0, 0)
	for i, p := range f.Poles {
		sum -= f.Residues[i] / p
	}
	return real(sum)
}

// Step evaluates the unit-step response y(t) = Σ (k_i/p_i)(e^{p_i t} − 1)
// for t ≥ 0. The imaginary parts cancel for physical (conjugate-symmetric)
// fits; any residual imaginary part is discarded.
func (f Fit) Step(t float64) float64 {
	if t <= 0 {
		return 0
	}
	sum := complex(0, 0)
	ct := complex(t, 0)
	for i, p := range f.Poles {
		sum += f.Residues[i] / p * (cmplx.Exp(p*ct) - 1)
	}
	return real(sum)
}

// Delay returns the first time the step response crosses fraction fr of the
// DC gain, using a sampling scan + Brent (no Newton: the high-order
// response's derivative is cheap but the scan already brackets the first
// crossing).
func (f Fit) Delay(fr float64) (float64, error) {
	if fr <= 0 || fr >= 1 {
		return 0, fmt.Errorf("awe: Delay fraction %g outside (0,1)", fr)
	}
	if !f.Stable() {
		return 0, ErrUnstable
	}
	target := fr * f.DCGain()
	g := func(t float64) float64 { return f.Step(t) - target }
	// Slowest pole sets the horizon.
	slow := math.Inf(1)
	for _, p := range f.Poles {
		if a := -real(p); a < slow {
			slow = a
		}
	}
	tmax := 4 / slow
	for try := 0; ; try++ {
		if lo, hi, ok := firstSignChange(g, tmax, 1024); ok {
			return num.Brent(g, lo, hi, 1e-16*tmax, 200)
		}
		if try == 20 {
			return 0, fmt.Errorf("awe: Delay: no crossing up to t=%g", tmax)
		}
		tmax *= 4
	}
}

// firstSignChange samples g at n+1 evenly spaced points of [0, tmax] and
// returns the first subinterval over which it changes sign. An order-q fit
// may carry zeros, so unlike the two-pole model its step response has no
// closed-form monotone bracket and the first crossing must be searched for.
func firstSignChange(g func(float64) float64, tmax float64, n int) (lo, hi float64, ok bool) {
	prevT, prevG := 0.0, g(0)
	for i := 1; i <= n; i++ {
		t := tmax * float64(i) / float64(n)
		gt := g(t)
		if gt == 0 || math.Signbit(gt) != math.Signbit(prevG) {
			return prevT, t, true
		}
		prevT, prevG = t, gt
	}
	return 0, 0, false
}

func cpow(z complex128, n int) complex128 {
	out := complex(1, 0)
	for i := 0; i < n; i++ {
		out *= z
	}
	return out
}
