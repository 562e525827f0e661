package num

import (
	"errors"
	"math"
	"testing"
)

func TestNewtonND2x2(t *testing.T) {
	// x^2 + y^2 = 4, x*y = 1; solution in the first quadrant with x > y.
	f := func(x, out []float64) error {
		out[0] = x[0]*x[0] + x[1]*x[1] - 4
		out[1] = x[0]*x[1] - 1
		return nil
	}
	res, err := NewtonND(f, []float64{2, 0.3}, NewtonNDOptions{Damping: true})
	if err != nil {
		t.Fatalf("NewtonND: %v", err)
	}
	x, y := res.X[0], res.X[1]
	if math.Abs(x*x+y*y-4) > 1e-8 || math.Abs(x*y-1) > 1e-8 {
		t.Errorf("residuals too large at (%v,%v)", x, y)
	}
}

// TestNewtonNDAnalyticJacobian: with opts.Jac the solve reaches the same
// root as with forward differences, never evaluates f for differencing, and
// surfaces a failing Jacobian as an error.
func TestNewtonNDAnalyticJacobian(t *testing.T) {
	evals := 0
	f := func(x, out []float64) error {
		evals++
		out[0] = x[0]*x[0] + x[1]*x[1] - 4
		out[1] = x[0]*x[1] - 1
		return nil
	}
	jac := func(x, j []float64) error {
		j[0], j[1] = 2*x[0], 2*x[1]
		j[2], j[3] = x[1], x[0]
		return nil
	}
	fd, err := NewtonND(f, []float64{2, 0.3}, NewtonNDOptions{Damping: true, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	fdX := append([]float64(nil), fd.X...)
	evals = 0
	an, err := NewtonND(f, []float64{2, 0.3}, NewtonNDOptions{Damping: true, Tol: 1e-13, Jac: jac})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.X[0]-fdX[0]) > 1e-12 || math.Abs(an.X[1]-fdX[1]) > 1e-12 {
		t.Errorf("analytic-Jacobian root %v, forward-difference root %v", an.X, fdX)
	}
	// One evaluation at x0 plus one accepted trial per Newton step.
	if evals != an.Iterations {
		t.Errorf("%d f evaluations over %d iterations: Jacobian was differenced", evals, an.Iterations)
	}
	bad := errors.New("jacobian failed")
	_, err = NewtonND(f, []float64{2, 0.3}, NewtonNDOptions{Jac: func(x, j []float64) error { return bad }})
	if !errors.Is(err, bad) {
		t.Errorf("failing Jacobian: error %v", err)
	}
}

func TestNewtonNDLinearExact(t *testing.T) {
	// A linear system must converge in one damped Newton iteration.
	f := func(x, out []float64) error {
		out[0] = 2*x[0] + x[1] - 5
		out[1] = x[0] - 3*x[1] + 4
		return nil
	}
	res, err := NewtonND(f, []float64{0, 0}, NewtonNDOptions{Damping: true})
	if err != nil {
		t.Fatalf("NewtonND: %v", err)
	}
	if math.Abs(res.X[0]-11.0/7) > 1e-8 || math.Abs(res.X[1]-13.0/7) > 1e-8 {
		t.Errorf("got %v, want (11/7, 13/7)", res.X)
	}
	if res.Iterations > 3 {
		t.Errorf("linear system took %d iterations", res.Iterations)
	}
}

func TestNewtonNDLowerBound(t *testing.T) {
	// Solve x^2 = 4 restricted to x >= 0 from a start that Newton would
	// otherwise push negative.
	f := func(x, out []float64) error {
		out[0] = x[0]*x[0] - 4
		return nil
	}
	res, err := NewtonND(f, []float64{0.1}, NewtonNDOptions{Damping: true, Lower: []float64{1e-9}})
	if err != nil {
		t.Fatalf("NewtonND: %v", err)
	}
	if math.Abs(res.X[0]-2) > 1e-7 {
		t.Errorf("got %v, want 2", res.X[0])
	}
}

func TestNewtonNDSingular(t *testing.T) {
	f := func(x, out []float64) error {
		out[0] = x[0] + x[1]
		out[1] = 2*x[0] + 2*x[1] + 1 // inconsistent, singular Jacobian
		return nil
	}
	if _, err := NewtonND(f, []float64{1, 1}, NewtonNDOptions{Damping: true}); err == nil {
		t.Error("expected failure on singular system")
	}
}

func TestSolveDense3x3(t *testing.T) {
	a := []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}
	b := []float64{8, -11, -3}
	if err := solveDense(a, b, 3); err != nil {
		t.Fatalf("solveDense: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestSolveDenseNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := []float64{
		0, 1,
		1, 0,
	}
	b := []float64{3, 7}
	if err := solveDense(a, b, 2); err != nil {
		t.Fatalf("solveDense: %v", err)
	}
	if b[0] != 7 || b[1] != 3 {
		t.Errorf("got %v, want [7 3]", b)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	b := []float64{1, 2}
	if err := solveDense(a, b, 2); err == nil {
		t.Error("expected singular-matrix error")
	}
}
