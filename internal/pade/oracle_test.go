package pade

import (
	"fmt"
	"math"
	"testing"

	"rlcint/internal/num"
)

// crossingScan samples f at n+1 evenly spaced points of [t0, t1] and returns
// the first subinterval over which it changes sign. It is the bracketing
// method the delay kernel used before the closed-form bracket, kept here as
// an independent oracle: it assumes nothing about the response's shape.
func crossingScan(f func(float64) float64, t0, t1 float64, n int) (lo, hi float64, ok bool) {
	prevT, prevF := t0, f(t0)
	if prevF == 0 {
		return t0, t0, true
	}
	dt := (t1 - t0) / float64(n)
	for i := 1; i <= n; i++ {
		t := t0 + float64(i)*dt
		ft := f(t)
		if ft == 0 {
			return t, t, true
		}
		if math.Signbit(ft) != math.Signbit(prevF) {
			return prevT, t, true
		}
		prevT, prevF = t, ft
	}
	return 0, 0, false
}

// scanDelay solves v(t) = f by scanning a growing window for the first sign
// change (512 samples, window ×4 up to 24 times) and polishing with Brent.
func scanDelay(m Model, f float64) (float64, error) {
	g := func(t float64) float64 { return m.Step(t) - f }
	tScale := math.Max(m.B1, math.Sqrt(m.B2))
	tmax := 4 * tScale
	for try := 0; try <= 24; try++ {
		if lo, hi, ok := crossingScan(g, 0, tmax, 512); ok {
			return num.Brent(g, lo, hi, 1e-16*tScale, 200)
		}
		tmax *= 4
	}
	return 0, fmt.Errorf("scanDelay(f=%g): no crossing up to t=%g", f, tmax)
}

// CheckAgainstOracle exposes checkAgainstOracle to the external tests,
// which build models from optimizer results.
var CheckAgainstOracle = checkAgainstOracle

func TestScanOracleFindsFirst(t *testing.T) {
	// sin crosses 0.5 first at π/6; a solver started near a later crossing
	// would find 5π/6.
	f := func(x float64) float64 { return math.Sin(x) - 0.5 }
	a, b, ok := crossingScan(f, 0, 10, 200)
	if !ok {
		t.Fatal("crossingScan found no crossing")
	}
	root, err := num.Brent(f, a, b, 1e-12, 100)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(root-math.Pi/6) > 1e-9 {
		t.Errorf("first crossing = %v, want π/6=%v", root, math.Pi/6)
	}
}

func TestScanOracleNone(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, _, ok := crossingScan(f, 0, 10, 100); ok {
		t.Error("crossingScan reported a crossing of a positive function")
	}
}

// TestDelayRampMatchesScanOracle checks the monotone-piece bracket of
// DelayRamp against a scan of the ramp response across damping regimes and
// rise times from a small fraction to many ringing periods.
func TestDelayRampMatchesScanOracle(t *testing.T) {
	for _, zeta := range []float64{0.05, 0.3, 1, 3} {
		m, err := New(2*zeta, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []float64{0.01, 0.5, 3, 2 * math.Pi, 20} {
			for _, f := range []float64{0.1, 0.5, 0.9, 0.99} {
				got, err := m.DelayRamp(f, tr)
				if err != nil {
					t.Fatalf("ζ=%g tr=%g f=%g: %v", zeta, tr, f, err)
				}
				g := func(t float64) float64 { return m.Ramp(t, tr) - f }
				lo, hi, ok := crossingScan(g, 0, 20*(m.B1+1+tr), 1<<17)
				if !ok {
					t.Fatalf("ζ=%g tr=%g f=%g: oracle found no crossing", zeta, tr, f)
				}
				want, err := num.Brent(g, lo, hi, 1e-15, 200)
				if err != nil {
					t.Fatal(err)
				}
				// Ramp differences two step integrals of size ~t, so for
				// tr ≪ t its value carries ~ε·t/tr absolute rounding; the
				// bound allows for that in both solvers.
				if d := math.Abs(got.Tau - (want - f*tr)); d > 1e-9*(m.B1+tr) {
					t.Errorf("ζ=%g tr=%g f=%g: τ=%.15g, oracle %.15g", zeta, tr, f, got.Tau, want-f*tr)
				}
			}
		}
	}
}
