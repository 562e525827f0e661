package pade

import (
	"fmt"
	"math"
	"math/cmplx"

	"rlcint/internal/diag"
	"rlcint/internal/num"
)

// StepIntegral evaluates I(t) = ∫₀ᵗ v(u) du of the unit step response in
// closed form. It is the building block for finite-rise-time (saturated
// ramp) inputs: the paper analyzes step inputs, but real repeater outputs
// have finite transition times, and by linearity the ramp response is
// (I(t) − I(t − t_r))/t_r.
func (m Model) StepIntegral(t float64) float64 {
	if t <= 0 {
		return 0
	}
	disc := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	ct := complex(t, 0)
	if math.Abs(disc) <= band {
		// Confluent double pole s: I(t) = t − [2(e^{st}−1)/s − t·e^{st}].
		s := complex(-m.B1/(2*m.B2), 0)
		e := cmplx.Exp(s * ct)
		return t - real(2*(e-1)/s-ct*e)
	}
	sq := cmplx.Sqrt(complex(disc, 0))
	cb1, cb2 := complex(m.B1, 0), complex(m.B2, 0)
	s1 := (-cb1 + sq) / (2 * cb2)
	s2 := (-cb1 - sq) / (2 * cb2)
	d := s2 - s1
	// I(t) = t − s2/(d·s1)·(e^{s1 t}−1) + s1/(d·s2)·(e^{s2 t}−1); real for
	// conjugate pairs.
	v := ct - s2/(d*s1)*(cmplx.Exp(s1*ct)-1) + s1/(d*s2)*(cmplx.Exp(s2*ct)-1)
	return real(v)
}

// Ramp evaluates the response to a saturated-ramp input that rises linearly
// from 0 to 1 over tRise (a step when tRise = 0).
func (m Model) Ramp(t, tRise float64) float64 {
	if tRise <= 0 {
		return m.Step(t)
	}
	if t <= 0 {
		return 0
	}
	if t <= tRise {
		return m.StepIntegral(t) / tRise
	}
	return (m.StepIntegral(t) - m.StepIntegral(t-tRise)) / tRise
}

// DelayRamp returns the f×100% propagation delay for a saturated-ramp input:
// the time from the input's crossing of f (at f·tRise) to the output's first
// crossing of f. With tRise = 0 it reduces to Delay.
func (m Model) DelayRamp(f, tRise float64) (DelayResult, error) {
	if tRise < 0 {
		return DelayResult{}, fmt.Errorf("pade: negative rise time %g", tRise)
	}
	if tRise == 0 {
		return m.Delay(f)
	}
	if f <= 0 || f >= 1 {
		return DelayResult{}, fmt.Errorf("%w: f=%g", ErrThreshold, f)
	}
	lo, hi, err := m.rampBracket(f, tRise)
	if err != nil {
		return DelayResult{}, err
	}
	g := func(t float64) float64 { return m.Ramp(t, tRise) - f }
	tScale := math.Max(m.B1, math.Sqrt(m.B2)) + tRise
	root, err := num.Brent(g, lo, hi, 1e-15*tScale, 200)
	if err != nil {
		return DelayResult{}, err
	}
	return DelayResult{Tau: root - f*tRise}, nil
}

// maxRampPieces bounds the monotone pieces rampBracket visits.
const maxRampPieces = 1 << 16

// rampBracket returns [lo, hi] holding the first crossing of the ramp
// response r(t) = f. Since r′(t) = v(t)/tr > 0 on (0, tr] and
// r′(t) = (v(t) − v(t−tr))/tr beyond, r is strictly increasing wherever v
// is, so for real poles doubling from b1 + tr finds the upper end. For
// poles −α ± jβ,
//
//	v(t) − v(t−tr) = e^(−αt)·Re[w·e^(jβt)],  w ∝ (1 − jα/β)(e^(−jβ·tr) − e^(−α·tr)),
//
// so past tr the sign of r′ changes only where βt + arg w = π/2 + nπ. r is
// monotone between those times, and the first piece that ends with r ≥ f
// holds the first crossing.
func (m Model) rampBracket(f, tr float64) (lo, hi float64, err error) {
	var next func() float64
	if m.Damping() == Underdamped {
		alpha := m.B1 / (2 * m.B2)
		beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
		w := complex(1, -alpha/beta) * (cmplx.Exp(complex(0, -beta*tr)) - complex(math.Exp(-alpha*tr), 0))
		phase := math.Pi/2 - cmplx.Phase(w)
		n := math.Floor((beta*tr-phase)/math.Pi) + 1
		next = func() float64 { n++; return (phase + (n-1)*math.Pi) / beta }
		hi = tr
	} else {
		next = func() float64 { return 2 * hi }
		hi = m.B1 + tr
	}
	for i := 0; i < maxRampPieces; i++ {
		if m.Ramp(hi, tr) >= f {
			return lo, hi, nil
		}
		lo, hi = hi, next()
	}
	return 0, 0, fmt.Errorf("pade: DelayRamp(f=%g, tr=%g): no crossing within %d monotone pieces: %w",
		f, tr, maxRampPieces, diag.ErrNonConvergence)
}
