// Package pade implements the paper's second-order (two-pole) Padé model of
// the driver–interconnect–load stage, Eq. (2):
//
//	H(s) ≈ 1/(1 + b1·s + b2·s²)
//
// with the closed-form coefficients of Section 2.1, its exact step response,
// the numerical f×100% delay solve of Eq. (3), damping classification,
// overshoot/undershoot metrics, and the critical line inductance of Eq. (4).
package pade

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/runctl"
	"rlcint/internal/tline"
)

// Damping classifies the second-order response.
type Damping int

const (
	Overdamped Damping = iota
	CriticallyDamped
	Underdamped
)

// String implements fmt.Stringer.
func (d Damping) String() string {
	switch d {
	case Overdamped:
		return "overdamped"
	case CriticallyDamped:
		return "critically damped"
	case Underdamped:
		return "underdamped"
	}
	return fmt.Sprintf("Damping(%d)", int(d))
}

// criticalTol is the relative width of the discriminant band treated as
// critically damped; inside it the confluent step-response formula is used
// to avoid catastrophic cancellation between nearly equal poles.
const criticalTol = 1e-9

// Model is a unit-gain two-pole lowpass 1/(1 + b1 s + b2 s²) with b1, b2 > 0
// (a passive stage always yields positive coefficients).
type Model struct {
	B1, B2 float64
}

// New validates and constructs a Model. Non-physical coefficients (NaN,
// Inf, or non-positive) are rejected with a diag.ErrDomain-matchable error.
func New(b1, b2 float64) (Model, error) {
	if !(b1 > 0) || !(b2 > 0) || math.IsInf(b1, 1) || math.IsInf(b2, 1) {
		return Model{}, fmt.Errorf("pade: non-physical coefficients b1=%g b2=%g: %w", b1, b2, diag.ErrDomain)
	}
	return Model{B1: b1, B2: b2}, nil
}

// FromStage builds the model for a driver–line–load stage using the paper's
// closed-form b1 and b2 (equivalently, the first two moments of the exact
// transfer function). Stages carrying NaN/Inf or non-physical parameters
// (e.g. assembled via StageOf from bad inputs) are rejected with a
// diag.ErrDomain-matchable error.
func FromStage(st tline.Stage) (Model, error) {
	if err := st.Validate(); err != nil {
		return Model{}, err
	}
	var buf [3]float64
	d := st.DenominatorSeriesInto(buf[:], 3)
	return New(d[1], d[2])
}

// Discriminant returns b1² − 4·b2: negative for underdamped responses.
func (m Model) Discriminant() float64 { return m.B1*m.B1 - 4*m.B2 }

// Zeta returns the damping ratio ζ = b1/(2√b2).
func (m Model) Zeta() float64 { return m.B1 / (2 * math.Sqrt(m.B2)) }

// OmegaN returns the natural frequency ωn = 1/√b2 (rad/s).
func (m Model) OmegaN() float64 { return 1 / math.Sqrt(m.B2) }

// Damping classifies the response, treating a small relative band around
// zero discriminant as critically damped.
func (m Model) Damping() Damping {
	d := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case d > band:
		return Overdamped
	case d < -band:
		return Underdamped
	}
	return CriticallyDamped
}

// Poles returns the two poles s1, s2 (complex conjugate when underdamped).
// The real-pole case returns s1 >= s2 (s1 is the slow pole).
func (m Model) Poles() (complex128, complex128) {
	disc := m.Discriminant()
	if disc >= 0 {
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		return complex(s1, 0), complex(s2, 0)
	}
	re := -m.B1 / (2 * m.B2)
	im := math.Sqrt(-disc) / (2 * m.B2)
	return complex(re, im), complex(re, -im)
}

// Step evaluates the unit step response at time t:
//
//	v(t) = 1 − s2/(s2−s1)·exp(s1 t) + s1/(s2−s1)·exp(s2 t),
//
// using numerically safe real forms in each damping regime and the confluent
// limit v(t) = 1 − (1 − s̄t)·exp(s̄t) near critical damping.
func (m Model) Step(t float64) float64 {
	if t <= 0 {
		return 0
	}
	disc := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case disc > band: // overdamped: two real poles
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2) // slow pole
		s2 := (-m.B1 - sq) / (2 * m.B2) // fast pole
		d := s2 - s1
		return 1 - s2/d*math.Exp(s1*t) + s1/d*math.Exp(s2*t)
	case disc < -band: // underdamped: complex pair −α ± jβ
		alpha := m.B1 / (2 * m.B2)
		beta := math.Sqrt(-disc) / (2 * m.B2)
		return 1 - math.Exp(-alpha*t)*(math.Cos(beta*t)+alpha/beta*math.Sin(beta*t))
	default: // critically damped (confluent limit)
		s := -m.B1 / (2 * m.B2)
		return 1 - (1-s*t)*math.Exp(s*t)
	}
}

// StepDeriv evaluates dv/dt of the unit step response at time t.
func (m Model) StepDeriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	disc := m.Discriminant()
	band := criticalTol * m.B1 * m.B1
	switch {
	case disc > band:
		sq := math.Sqrt(disc)
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		d := s2 - s1
		// v' = s1·s2/(s2−s1)·(exp(s2 t) − exp(s1 t)) ... derived from Step.
		return -s1 * s2 / d * math.Exp(s1*t) * (1 - math.Exp((s2-s1)*t))
	case disc < -band:
		alpha := m.B1 / (2 * m.B2)
		beta := math.Sqrt(-disc) / (2 * m.B2)
		// v' = exp(−αt)·(α²+β²)/β·sin(βt)
		return math.Exp(-alpha*t) * (alpha*alpha + beta*beta) / beta * math.Sin(beta*t)
	default:
		s := -m.B1 / (2 * m.B2)
		return s * s * t * math.Exp(s*t)
	}
}

// DelayResult carries the threshold delay and solver diagnostics.
type DelayResult struct {
	Tau        float64 // time of the first crossing of f
	Iterations int     // Newton iterations used (the paper reports ≤ 4)
}

// ErrThreshold rejects delay thresholds outside [0, 1). It wraps
// diag.ErrDomain, so callers can match either sentinel.
var ErrThreshold = fmt.Errorf("pade: threshold must satisfy 0 <= f < 1: %w", diag.ErrDomain)

// Delay solves the paper's Eq. (3) for the f×100% delay: the first time at
// which the unit step response reaches f. The first crossing is bracketed in
// closed form (see firstCrossingBracket) and polished with safeguarded
// Newton.
func (m Model) Delay(f float64) (DelayResult, error) {
	return m.DelayWith(nil, f)
}

// stepState carries (model, threshold) into the package-level residual
// functions below, so the delay solvers avoid a per-call closure allocation
// on the optimizer's hottest path.
type stepState struct {
	m Model
	f float64
}

func stepResidual(s stepState, t float64) float64 { return s.m.Step(t) - s.f }
func stepDeriv(s stepState, t float64) float64    { return s.m.StepDeriv(t) }

// validThreshold rejects thresholds outside [0, 1).
func validThreshold(f float64) error {
	if f < 0 || f >= 1 || math.IsNaN(f) {
		return fmt.Errorf("%w: f=%g", ErrThreshold, f)
	}
	return nil
}

// halfPeriod returns π/β, the time of the first overshoot peak, for an
// underdamped model, and +Inf otherwise.
func (m Model) halfPeriod() float64 {
	if m.Damping() != Underdamped {
		return math.Inf(1)
	}
	return 2 * math.Pi * m.B2 / math.Sqrt(-m.Discriminant())
}

// firstCrossingBracket returns [lo, hi] holding the unique first crossing of
// v(t) = f, 0 < f < 1. The two-pole response has no zeros, so:
//
//   - underdamped (poles −α ± jβ): v′(t) ∝ e^(−αt)·sin βt is positive on
//     (0, π/β) and v(π/β) = 1 + e^(−απ/β) > 1, so v rises strictly from 0
//     past f on [0, π/β] and the crossing there is the first one;
//   - otherwise v′ > 0 for all t > 0 and v → 1, so v is strictly monotone
//     and doubling from b1 reaches a point with v ≥ f in a few steps (v
//     rounds to exactly 1 once the slow exponential underflows, and f < 1).
func (m Model) firstCrossingBracket(f float64) (lo, hi float64) {
	if tp := m.halfPeriod(); !math.IsInf(tp, 1) {
		return 0, tp
	}
	hi = m.B1
	for m.Step(hi) < f {
		lo, hi = hi, 2*hi
	}
	return lo, hi
}

// DelayWith is Delay consulting ctl (which may be nil) once before the
// solve, so cancelling an optimization aborts at its next delay solve.
func (m Model) DelayWith(ctl *runctl.Controller, f float64) (DelayResult, error) {
	if err := validThreshold(f); err != nil {
		return DelayResult{}, err
	}
	if f == 0 {
		return DelayResult{}, nil
	}
	if err := ctl.Check("pade.Delay"); err != nil {
		return DelayResult{}, err
	}
	lo, hi := m.firstCrossingBracket(f)
	// Start from the larger of the single-pole estimate −ln(1−f)·b1 and the
	// early-time estimate √(2f·b2) (v ≈ t²/(2b2) near t = 0), clamped into
	// the bracket. Over ζ ∈ [0.05, 20] this takes ≤8 Newton iterations; the
	// midpoint of [0, π/β] sits where v′ → 0 for high thresholds and costs
	// tens of safeguarded iterations instead.
	x0 := math.Max(-math.Log1p(-f)*m.B1, math.Sqrt(2*f*m.B2))
	x0 = math.Min(math.Max(x0, lo), hi)
	return m.polish(f, lo, hi, x0)
}

// polish runs safeguarded Newton on v(t) = f inside a bracket [lo, hi] known
// to hold the first crossing, falling back to Brent (which cannot fail once
// a bracket exists, since Step is continuous).
func (m Model) polish(f, lo, hi, x0 float64) (DelayResult, error) {
	g := stepState{m: m, f: f}
	tScale := math.Max(m.B1, math.Sqrt(m.B2))
	res, err := num.Newton1DS(stepResidual, stepDeriv, g, lo, hi, x0, 1e-14*tScale+1e-30, 60)
	if err == nil {
		return DelayResult{Tau: res.Root, Iterations: res.Iterations}, nil
	}
	tau, berr := num.BrentS(stepResidual, g, lo, hi, 1e-16*tScale, 200)
	if berr != nil {
		return DelayResult{}, fmt.Errorf("pade: Delay(f=%g): %w", f, berr)
	}
	return DelayResult{Tau: tau, Iterations: res.Iterations}, nil
}

// DelaySeeded is DelayWith with a warm-start hint: hint is the converged
// delay of a neighboring solve (an adjacent grid point of a sweep, or the
// previous evaluation of an optimization trajectory). The local bracket
// [0.75·hint, hint/0.75] is clamped to π/β for underdamped responses, where
// v is monotone (see firstCrossingBracket), so a bracket that straddles f
// holds the first crossing; Newton then starts from the hint. A bracket that
// does not straddle f (bad hint) falls back to DelayWith, so the seeded
// solve never returns a different crossing than the cold one and agrees
// with it to the solver tolerance (~1e-14 relative).
func (m Model) DelaySeeded(ctl *runctl.Controller, f, hint float64) (DelayResult, error) {
	if !(hint > 0) || math.IsInf(hint, 1) {
		return m.DelayWith(ctl, f)
	}
	if err := validThreshold(f); err != nil {
		return DelayResult{}, err
	}
	if f == 0 {
		return DelayResult{}, nil
	}
	if err := ctl.Check("pade.DelaySeeded"); err != nil {
		return DelayResult{}, err
	}
	lo, hi := 0.75*hint, math.Min(hint/0.75, m.halfPeriod())
	if !(lo < hi && m.Step(lo) < f && m.Step(hi) > f) {
		return m.DelayWith(ctl, f)
	}
	return m.polish(f, lo, hi, hint)
}

// Overshoot returns the peak of the step response relative to the final
// value (v_peak − 1, i.e. 0 for non-underdamped responses) and the time of
// the peak (+Inf when there is no finite peak).
func (m Model) Overshoot() (mag, tPeak float64) {
	if m.Damping() != Underdamped {
		return 0, math.Inf(1)
	}
	alpha := m.B1 / (2 * m.B2)
	beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
	tPeak = math.Pi / beta
	return math.Exp(-alpha * tPeak), tPeak
}

// Undershoot returns the depth of the first post-peak minimum below the
// final value (1 − v_min ≥ 0 relative magnitude, 0 for non-underdamped) and
// its time. This is the quantity the paper ties to false switching.
func (m Model) Undershoot() (mag, tMin float64) {
	if m.Damping() != Underdamped {
		return 0, math.Inf(1)
	}
	alpha := m.B1 / (2 * m.B2)
	beta := math.Sqrt(-m.Discriminant()) / (2 * m.B2)
	tMin = 2 * math.Pi / beta
	return math.Exp(-alpha * tMin), tMin
}

// SettleTime returns the time after which the response envelope stays within
// ±tol of the final value (envelope-based, conservative for real poles).
func (m Model) SettleTime(tol float64) float64 {
	if tol <= 0 || tol >= 1 {
		tol = 0.01
	}
	switch m.Damping() {
	case Underdamped, CriticallyDamped:
		alpha := m.B1 / (2 * m.B2)
		// Envelope exp(−αt)·√(1+(α/β)²) ≤ exp(−αt)/ sin(acos ζ); use the
		// standard ζ-corrected bound, clamped for near-critical ζ.
		zeta := math.Min(m.Zeta(), 0.999)
		return -math.Log(tol*math.Sqrt(1-zeta*zeta)) / alpha
	default:
		// Slow pole dominates; include its residue amplitude |s2/(s2−s1)|.
		sq := math.Sqrt(m.Discriminant())
		s1 := (-m.B1 + sq) / (2 * m.B2)
		s2 := (-m.B1 - sq) / (2 * m.B2)
		amp := math.Abs(s2 / (s2 - s1))
		return math.Log(amp/tol) / -s1
	}
}

// LCrit computes the paper's Eq. (4): the per-unit-length line inductance
// that makes the stage critically damped at the given geometry and sizing.
// All other stage parameters are taken from st; st.Line.L is ignored.
// The result may be negative, meaning the stage is underdamped even with a
// zero-inductance line (cannot happen for physical b1², but kept signed for
// diagnostic use).
func LCrit(st tline.Stage) float64 {
	r, c := st.Line.R, st.Line.C
	h := st.H
	rs, cp, cl := st.RS, st.CP, st.CL
	b1 := rs*(cp+cl) + r*c*h*h/2 + rs*c*h + cl*r*h
	num := b1*b1/4 -
		r*r*c*c*h*h*h*h/24 -
		rs*(cp+cl)*r*c*h*h/2 -
		(rs*c*h+cl*r*h)*r*c*h*h/6 -
		rs*cp*cl*r*h
	den := c*h*h/2 + cl*h
	return num / den
}
