package num

import (
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// VecFunc is a vector-valued function of a vector argument. Implementations
// must write the result into out (len(out) == len(x)) and may return an
// error when the point is outside the function's domain.
type VecFunc func(x, out []float64) error

// NewtonNDResult reports the outcome of a multi-dimensional Newton solve.
type NewtonNDResult struct {
	X          []float64
	Residual   float64
	Iterations int
}

// NewtonNDOptions configures NewtonND.
type NewtonNDOptions struct {
	Tol      float64 // residual infinity-norm tolerance (default 1e-10)
	StepTol  float64 // relative step-size tolerance (default 1e-12)
	MaxIter  int     // default 50
	FDScale  float64 // relative finite-difference step (default 1e-7)
	Damping  bool    // enable backtracking line search (default via DefaultNewtonND)
	MaxHalve int     // max backtracking halvings per iteration (default 12)
	// Lower, when non-nil, gives per-component lower bounds enforced by
	// clipping trial points (used to keep h, k positive).
	Lower []float64
	// Jac, when non-nil, writes the analytic Jacobian of f at x into jac
	// (row-major n×n) in place of forward differences. NewtonND calls it at
	// the point f was last evaluated at, so an implementation may reuse
	// work cached by that call.
	Jac func(x, jac []float64) error
	// Ctl, when non-nil, is consulted at every Newton iteration; a stop
	// (cancellation, deadline, iteration budget) aborts the solve with the
	// typed run-control error.
	Ctl *runctl.Controller
	// WS, when non-nil, supplies reusable scratch storage so repeated
	// solves allocate nothing. The returned Result.X aliases WS storage and
	// is only valid until the next call using the same WS; copy it if it
	// must outlive that.
	WS *NewtonNDWS
}

// NewtonNDWS is reusable scratch state for NewtonND. A zero value is ready
// to use; it grows to the largest system dimension it has seen and is not
// safe for concurrent use.
type NewtonNDWS struct {
	n                       int
	x, fx, ftrial, step, xt []float64
	jac                     []float64
}

func (ws *NewtonNDWS) grow(n int) {
	if n <= ws.n {
		return
	}
	ws.n = n
	ws.x = make([]float64, n)
	ws.fx = make([]float64, n)
	ws.ftrial = make([]float64, n)
	ws.step = make([]float64, n)
	ws.xt = make([]float64, n)
	ws.jac = make([]float64, n*n)
}

// Validate rejects option sets that a plain `== 0` default check would let
// through and silently corrupt convergence testing: negative, NaN, or Inf
// tolerances and budgets. The zero value of each field still means "use the
// default".
func (o NewtonNDOptions) Validate() error {
	names := []string{"Tol", "StepTol", "FDScale"}
	vals := []float64{o.Tol, o.StepTol, o.FDScale}
	for i, v := range vals {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return diag.Domainf("num.NewtonND", "%s=%g must be a finite non-negative value", names[i], v)
		}
	}
	if o.MaxIter < 0 || o.MaxHalve < 0 {
		return diag.Domainf("num.NewtonND", "negative iteration budget MaxIter=%d MaxHalve=%d", o.MaxIter, o.MaxHalve)
	}
	for i, v := range o.Lower {
		if math.IsNaN(v) {
			return diag.Domainf("num.NewtonND", "Lower[%d] is NaN", i)
		}
	}
	return nil
}

func (o *NewtonNDOptions) defaults() {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.StepTol == 0 {
		o.StepTol = 1e-12
	}
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.FDScale == 0 {
		o.FDScale = 1e-7
	}
	if o.MaxHalve == 0 {
		o.MaxHalve = 12
	}
}

// NewtonND solves f(x) = 0 with Newton's method using the analytic Jacobian
// opts.Jac (forward differences when nil) and a residual-reducing
// backtracking line search. The Jacobian
// system is solved with dense Gaussian elimination with partial pivoting
// (systems here are 2x2 or 3x3).
func NewtonND(f VecFunc, x0 []float64, opts NewtonNDOptions) (NewtonNDResult, error) {
	if err := opts.Validate(); err != nil {
		return NewtonNDResult{}, err
	}
	for i, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return NewtonNDResult{}, diag.Domainf("num.NewtonND", "x0[%d]=%g is not finite", i, v)
		}
	}
	opts.defaults()
	n := len(x0)
	ws := opts.WS
	if ws == nil {
		ws = &NewtonNDWS{}
	}
	ws.grow(n)
	x := ws.x[:n]
	copy(x, x0)
	fx := ws.fx[:n]
	ftrial := ws.ftrial[:n]
	jac := ws.jac[:n*n]
	step := ws.step[:n]
	xt := ws.xt[:n]
	for i := range fx {
		fx[i], ftrial[i] = 0, 0
	}

	clip := func(v []float64) {
		if opts.Lower == nil {
			return
		}
		for i := range v {
			if v[i] < opts.Lower[i] {
				v[i] = opts.Lower[i]
			}
		}
	}
	clip(x)
	if err := f(x, fx); err != nil {
		return NewtonNDResult{}, fmt.Errorf("num: NewtonND initial point: %w", err)
	}
	res := NewtonNDResult{X: x}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := opts.Ctl.Tick("num.NewtonND"); err != nil {
			res.X = x
			return res, err
		}
		res.Iterations = iter + 1
		r := infNorm(fx)
		res.Residual = r
		if r < opts.Tol {
			return res, nil
		}
		if opts.Jac != nil {
			if err := opts.Jac(x, jac); err != nil {
				return res, fmt.Errorf("num: NewtonND Jacobian eval: %w", err)
			}
		}
		// Forward-difference Jacobian column by column.
		for j := 0; j < n && opts.Jac == nil; j++ {
			hstep := fdScale(x[j], opts.FDScale)
			copy(xt, x)
			xt[j] += hstep
			clip(xt)
			dh := xt[j] - x[j]
			if dh == 0 {
				xt[j] = x[j] - hstep
				dh = -hstep
			}
			if err := f(xt, ftrial); err != nil {
				return res, fmt.Errorf("num: NewtonND Jacobian eval: %w", err)
			}
			for i := 0; i < n; i++ {
				jac[i*n+j] = (ftrial[i] - fx[i]) / dh
			}
		}
		for i := 0; i < n; i++ {
			step[i] = -fx[i]
		}
		if err := solveDense(jac, step, n); err != nil {
			de := diag.New(diag.ErrSingularJacobian, "num.NewtonND")
			de.Iteration = iter + 1
			de.Residual = r
			de.Err = err
			return res, de
		}
		// Backtracking line search on the residual norm.
		lambda := 1.0
		improved := false
		for h := 0; h <= opts.MaxHalve; h++ {
			for i := 0; i < n; i++ {
				xt[i] = x[i] + lambda*step[i]
			}
			clip(xt)
			if err := f(xt, ftrial); err == nil {
				if rn := infNorm(ftrial); rn < r || !opts.Damping {
					copy(x, xt)
					copy(fx, ftrial)
					improved = true
					break
				}
			}
			lambda *= 0.5
		}
		if !improved {
			de := diag.New(diag.ErrNonConvergence, "num.NewtonND")
			de.Iteration = iter + 1
			de.Residual = r
			de.Damping = lambda
			de.Detail = "line search stalled"
			de.Err = ErrNoConvergence
			return res, de
		}
		// Step-size convergence.
		small := true
		for i := 0; i < n; i++ {
			if math.Abs(lambda*step[i]) > opts.StepTol*math.Max(math.Abs(x[i]), 1) {
				small = false
				break
			}
		}
		if small {
			if err := f(x, fx); err == nil {
				res.Residual = infNorm(fx)
			}
			res.X = x
			return res, nil
		}
	}
	res.X = x
	de := diag.New(diag.ErrNonConvergence, "num.NewtonND")
	de.Iteration = opts.MaxIter
	de.Residual = res.Residual
	de.Detail = "iteration budget exhausted"
	de.Err = ErrNoConvergence
	return res, de
}

func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// solveDense solves the n-by-n system a*x = b in place (a is row-major and is
// destroyed; b is overwritten with the solution).
func solveDense(a, b []float64, n int) error {
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		maxv := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxv {
				maxv, p = v, r
			}
		}
		if maxv == 0 {
			return fmt.Errorf("singular matrix (column %d)", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[p*n+j] = a[p*n+j], a[col*n+j]
			}
			b[col], b[p] = b[p], b[col]
		}
		piv := a[col*n+col]
		for r := col + 1; r < n; r++ {
			m := a[r*n+col] / piv
			if m == 0 {
				continue
			}
			a[r*n+col] = 0
			for j := col + 1; j < n; j++ {
				a[r*n+j] -= m * a[col*n+j]
			}
			b[r] -= m * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for j := r + 1; j < n; j++ {
			s -= a[r*n+j] * b[j]
		}
		b[r] = s / a[r*n+r]
	}
	return nil
}
