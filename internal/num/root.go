package num

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
)

// ErrNoConvergence is returned when an iterative routine exhausts its
// iteration budget without meeting its tolerance. It wraps
// diag.ErrNonConvergence, so callers can match either sentinel.
var ErrNoConvergence = fmt.Errorf("num: no convergence: %w", diag.ErrNonConvergence)

// ErrBadBracket is returned when a bracketing routine is handed an interval
// whose endpoints do not straddle a root. It wraps diag.ErrDomain.
var ErrBadBracket = fmt.Errorf("num: endpoints do not bracket a root: %w", diag.ErrDomain)

// NewtonResult reports the outcome of a scalar Newton solve.
type NewtonResult struct {
	Root       float64
	Iterations int
	// Bisections counts safeguard steps taken instead of Newton steps.
	Bisections int
}

// fn1 and fdf adapt plain closure-based callers onto the generic
// state-carrying solver bodies below, so both entry points share one
// implementation (and hence stay bit-identical) while hot callers can avoid
// the closure allocations entirely by passing static functions plus a value
// state.
type fn1 struct{ f func(float64) float64 }

func callFn1(s fn1, x float64) float64 { return s.f(x) }

type fdf struct{ f, df func(float64) float64 }

func callF(s fdf, x float64) float64  { return s.f(x) }
func callDF(s fdf, x float64) float64 { return s.df(x) }

// Newton1D finds a root of f inside [a, b] using Newton's method with a
// bisection safeguard. df is the derivative of f. f(a) and f(b) must have
// opposite signs (one may be zero). The safeguard guarantees global
// convergence: whenever a Newton step would leave the current bracket or
// fails to shrink the residual, a bisection step is substituted and the
// bracket is maintained throughout.
//
// tol is an absolute tolerance on the root location; iteration also stops
// when |f| underflows to zero.
func Newton1D(f, df func(float64) float64, a, b, x0, tol float64, maxIter int) (NewtonResult, error) {
	return Newton1DS(callF, callDF, fdf{f: f, df: df}, a, b, x0, tol, maxIter)
}

// Newton1DS is Newton1D over a state-carrying function pair: f and df are
// static functions receiving the caller's state s, so repeated solves on a
// hot path allocate no closures. The algorithm is identical to Newton1D
// (which delegates here).
func Newton1DS[S any](f, df func(S, float64) float64, s S, a, b, x0, tol float64, maxIter int) (NewtonResult, error) {
	if a > b {
		a, b = b, a
	}
	fa, fb := f(s, a), f(s, b)
	if fa == 0 {
		return NewtonResult{Root: a}, nil
	}
	if fb == 0 {
		return NewtonResult{Root: b}, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return NewtonResult{}, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBadBracket, a, fa, b, fb)
	}
	x := x0
	if x < a || x > b || math.IsNaN(x) {
		x = 0.5 * (a + b)
	}
	res := NewtonResult{}
	for i := 0; i < maxIter; i++ {
		res.Iterations = i + 1
		fx := f(s, x)
		if fx == 0 || math.Abs(b-a) < tol {
			res.Root = x
			return res, nil
		}
		// Shrink the bracket with the new sample.
		if math.Signbit(fx) == math.Signbit(fa) {
			a, fa = x, fx
		} else {
			b, fb = x, fx
		}
		dfx := df(s, x)
		var xn float64
		if dfx != 0 {
			xn = x - fx/dfx
		} else {
			xn = math.NaN()
		}
		if math.Abs(xn-x) < tol {
			// A Newton step below tol has converged, even when rounding
			// leaves it on the bracket end x just became.
			res.Root = xn
			return res, nil
		}
		if math.IsNaN(xn) || xn <= a || xn >= b {
			// Newton step rejected: bisect.
			xn = 0.5 * (a + b)
			res.Bisections++
		}
		if math.Abs(xn-x) < tol {
			res.Root = xn
			return res, nil
		}
		x = xn
	}
	res.Root = x
	if math.Abs(b-a) < 16*tol {
		return res, nil
	}
	return res, fmt.Errorf("%w: Newton1D after %d iterations (bracket width %g)", ErrNoConvergence, maxIter, b-a)
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection safeguards). f(a) and f(b) must straddle zero.
func Brent(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	return BrentS(callFn1, fn1{f: f}, a, b, tol, maxIter)
}

// BrentS is Brent over a state-carrying function, for closure-free hot
// paths. The algorithm is identical to Brent (which delegates here).
func BrentS[S any](f func(S, float64) float64, s S, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(s, a), f(s, b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBadBracket, a, fa, b, fb)
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < maxIter; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		const eps = 2.220446049250313e-16
		tol1 := 2*eps*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(s, b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, fmt.Errorf("%w: Brent after %d iterations", ErrNoConvergence, maxIter)
}

// Bisect performs plain bisection; it is used as a last-resort fallback and
// in tests as an oracle for the faster root finders.
func Bisect(f func(float64) float64, a, b, tol float64, maxIter int) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrBadBracket
	}
	for i := 0; i < maxIter && math.Abs(b-a) > tol; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}

// BracketOut expands an initial guess interval geometrically until it
// brackets a sign change of f or the expansion budget is exhausted.
// It returns the bracketing interval.
func BracketOut(f func(float64) float64, a, b float64, maxExpand int) (float64, float64, error) {
	if a == b {
		b = a + 1
	}
	if a > b {
		a, b = b, a
	}
	fa, fb := f(a), f(b)
	const grow = 1.6
	for i := 0; i < maxExpand; i++ {
		if math.Signbit(fa) != math.Signbit(fb) || fa == 0 || fb == 0 {
			return a, b, nil
		}
		if math.Abs(fa) < math.Abs(fb) {
			a -= grow * (b - a)
			fa = f(a)
		} else {
			b += grow * (b - a)
			fb = f(b)
		}
	}
	return a, b, fmt.Errorf("%w: BracketOut", ErrBadBracket)
}
