package num

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewton1DQuadratic(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	df := func(x float64) float64 { return 2 * x }
	res, err := Newton1D(f, df, 0, 2, 1, 1e-12, 50)
	if err != nil {
		t.Fatalf("Newton1D: %v", err)
	}
	if math.Abs(res.Root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", res.Root)
	}
	if res.Iterations > 8 {
		t.Errorf("took %d iterations, want fast quadratic convergence", res.Iterations)
	}
}

func TestNewton1DEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	df := func(x float64) float64 { return 1 }
	res, err := Newton1D(f, df, 0, 1, 0.5, 1e-12, 50)
	if err != nil || res.Root != 0 {
		t.Errorf("root at left endpoint: got %v, %v", res.Root, err)
	}
	res, err = Newton1D(f, df, -1, 0, -0.5, 1e-12, 50)
	if err != nil || res.Root != 0 {
		t.Errorf("root at right endpoint: got %v, %v", res.Root, err)
	}
}

func TestNewton1DBadBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	df := func(x float64) float64 { return 2 * x }
	if _, err := Newton1D(f, df, 0, 1, 0.5, 1e-12, 50); err == nil {
		t.Error("expected ErrBadBracket for positive function")
	}
}

func TestNewton1DSafeguardKicksIn(t *testing.T) {
	// f has a flat region that defeats raw Newton (derivative ~0 at start).
	f := func(x float64) float64 { return math.Atan(x - 3) }
	df := func(x float64) float64 { return 1 / (1 + (x-3)*(x-3)) }
	res, err := Newton1D(f, df, -50, 50, -49, 1e-10, 100)
	if err != nil {
		t.Fatalf("Newton1D: %v", err)
	}
	if math.Abs(res.Root-3) > 1e-8 {
		t.Errorf("root = %v, want 3", res.Root)
	}
}

func TestBrentAgainstBisect(t *testing.T) {
	fns := []struct {
		name string
		f    func(float64) float64
		a, b float64
	}{
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2},
		{"cos", math.Cos, 1, 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3},
		{"steep", func(x float64) float64 { return math.Tanh(50 * (x - 0.3)) }, 0, 1},
	}
	for _, tc := range fns {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Brent(tc.f, tc.a, tc.b, 1e-13, 200)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			want, err := Bisect(tc.f, tc.a, tc.b, 1e-13, 200)
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("Brent=%v Bisect=%v", got, want)
			}
		})
	}
}

func TestBrentPropertyLinear(t *testing.T) {
	// Property: for any line with slope m != 0 crossing inside the bracket,
	// Brent recovers the exact root.
	prop := func(m, r float64) bool {
		m = 0.5 + math.Abs(math.Mod(m, 10)) // slope in [0.5, 10.5)
		r = math.Mod(r, 1)                  // root in (-1, 1)
		f := func(x float64) float64 { return m * (x - r) }
		got, err := Brent(f, -2, 2, 1e-14, 100)
		return err == nil && math.Abs(got-r) < 1e-10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBracketOut(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := BracketOut(f, 0, 1, 40)
	if err != nil {
		t.Fatalf("BracketOut: %v", err)
	}
	if !(a <= 100 && 100 <= b) {
		t.Errorf("bracket [%v,%v] does not contain 100", a, b)
	}
}

func TestBisectBadBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-12, 10); err == nil {
		t.Error("expected ErrBadBracket")
	}
}
