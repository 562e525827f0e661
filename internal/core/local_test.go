package core

import (
	"math"
	"testing"

	"rlcint/internal/tech"
)

// localOf builds the local model at (h, k) with the delay solved there.
func localOf(t *testing.T, p Problem, h, k float64) local {
	t.Helper()
	l, err := p.localAt(h, k)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCoeffSecondDerivsMatchFiniteDifferences(t *testing.T) {
	p := problem(tech.Node100(), 2)
	h0, k0 := 11.1*tech.MM, 528.0
	b1hh, b1hk, b1kk, b2hh, b2hk, b2kk := p.coeffSecondDerivs(h0, k0)
	first := func(h, k float64) [4]float64 {
		_, _, b1h, b1k, b2h, b2k := p.coeffDerivs(h, k)
		return [4]float64{b1h, b1k, b2h, b2k}
	}
	eh, ek := 1e-6*h0, 1e-6*k0
	ph, mh := first(h0+eh, k0), first(h0-eh, k0)
	pk, mk := first(h0, k0+ek), first(h0, k0-ek)
	checks := []struct {
		name     string
		analytic float64
		fd       float64
	}{
		{"b1_hh", b1hh, (ph[0] - mh[0]) / (2 * eh)},
		{"b1_hk", b1hk, (pk[0] - mk[0]) / (2 * ek)},
		{"b1_kh", b1hk, (ph[1] - mh[1]) / (2 * eh)},
		{"b1_kk", b1kk, (pk[1] - mk[1]) / (2 * ek)},
		{"b2_hh", b2hh, (ph[2] - mh[2]) / (2 * eh)},
		{"b2_hk", b2hk, (pk[2] - mk[2]) / (2 * ek)},
		{"b2_kh", b2hk, (ph[3] - mh[3]) / (2 * eh)},
		{"b2_kk", b2kk, (pk[3] - mk[3]) / (2 * ek)},
	}
	for _, c := range checks {
		if math.Abs(c.analytic-c.fd) > 1e-6*math.Abs(c.fd)+1e-30 {
			t.Errorf("%s: analytic %v, FD %v", c.name, c.analytic, c.fd)
		}
	}
}

// TestSecondOrderMatchesFiniteDifferences checks the analytic Jacobian of
// (g1, g2) and the Hessian of τ/h against central differences of the
// residuals and of the objective, in both damping regimes.
func TestSecondOrderMatchesFiniteDifferences(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
		h, k float64
	}{
		{"100nm underdamped", problem(tech.Node100(), 2), 13 * tech.MM, 300},
		{"100nm near optimum", problem(tech.Node100(), 2), 11.1 * tech.MM, 528},
		{"250nm overdamped", problem(tech.Node250(), 0.1), 14.4 * tech.MM, 578},
	}
	for _, c := range cases {
		p := c.p
		l := localOf(t, p, c.h, c.k)
		jac, hess := p.secondOrder(&l)
		g := func(h, k float64) [2]float64 {
			lx := localOf(t, p, h, k)
			g1, g2 := lx.residuals()
			return [2]float64{g1, g2}
		}
		phi := func(h, k float64) float64 { return p.PerUnitDelay(h, k) }
		x := [2]float64{c.h, c.k}
		for j := 0; j < 2; j++ {
			e := 1e-5 * x[j]
			xp, xm := x, x
			xp[j] += e
			xm[j] -= e
			gp, gm := g(xp[0], xp[1]), g(xm[0], xm[1])
			for i := 0; i < 2; i++ {
				fd := (gp[i] - gm[i]) / (2 * e)
				if d := math.Abs(jac[i][j] - fd); d > 1e-4*math.Abs(fd)+1e-8*(math.Abs(jac[i][0]*x[0])+math.Abs(jac[i][1]*x[1]))/x[j] {
					t.Errorf("%s: ∂g%d/∂x%d analytic %v, FD %v", c.name, i+1, j, jac[i][j], fd)
				}
			}
		}
		// Hessian: second central differences of τ/h with a coarser step.
		e := [2]float64{1e-3 * x[0], 1e-3 * x[1]}
		f0 := phi(x[0], x[1])
		fdH := [2][2]float64{
			{(phi(x[0]+e[0], x[1]) - 2*f0 + phi(x[0]-e[0], x[1])) / (e[0] * e[0]), 0},
			{0, (phi(x[0], x[1]+e[1]) - 2*f0 + phi(x[0], x[1]-e[1])) / (e[1] * e[1])},
		}
		fdH[0][1] = (phi(x[0]+e[0], x[1]+e[1]) - phi(x[0]+e[0], x[1]-e[1]) -
			phi(x[0]-e[0], x[1]+e[1]) + phi(x[0]-e[0], x[1]-e[1])) / (4 * e[0] * e[1])
		fdH[1][0] = fdH[0][1]
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				scale := math.Sqrt(math.Abs(fdH[i][i] * fdH[j][j]))
				if d := math.Abs(hess[i][j] - fdH[i][j]); d > 1e-3*scale {
					t.Errorf("%s: ∂²(τ/h)/∂x%d∂x%d analytic %v, FD %v", c.name, i, j, hess[i][j], fdH[i][j])
				}
			}
		}
	}
}
