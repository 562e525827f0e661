package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlcint/internal/diag"
	"rlcint/internal/num"
	"rlcint/internal/repeater"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// figGrid is the Figures 4–8 inductance grid (H/m) of cmd/figures.
func figGrid() []float64 { return num.Linspace(0.1e-6, 4.9e-6, 13) }

// latticeProblems is the 101-point 0–5 nH/mm lattice on every node.
func latticeProblems() []Problem {
	var ps []Problem
	for _, node := range []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()} {
		for j := 0; j <= 100; j++ {
			ps = append(ps, Problem{
				Device: repeater.FromTech(node),
				Line:   tline.Line{R: node.R, L: float64(j) * 0.05 * tech.NHPerMM, C: node.C},
			})
		}
	}
	return ps
}

// noNewtonStarts faults every Newton start (cold start and multi-starts)
// but not the polish, so the ladder answers through Nelder–Mead plus its
// Newton polish — the path every cold solve used to run as a cross-check.
var noNewtonStarts = &diag.Injector{Fault: func(s diag.Site) error {
	if s.Op == "core.stationarity" && s.Step >= 0 {
		return errors.New("Newton starts disabled")
	}
	return nil
}}

// TestCertifiedNewtonMatchesNelderMeadLadder: on the Figures 4–8 grids the
// certified cold Newton optimum is the optimum the Nelder–Mead ladder finds.
func TestCertifiedNewtonMatchesNelderMeadLadder(t *testing.T) {
	for _, node := range []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()} {
		for _, l := range figGrid() {
			p := Problem{Device: repeater.FromTech(node), Line: tline.Line{R: node.R, L: l, C: node.C}}
			rep := &diag.Report{}
			p.Report = rep
			got, err := Optimize(p)
			if err != nil {
				t.Fatalf("%s l=%g: %v", node.Name, l, err)
			}
			if n := rep.Tried("opt-nelder-mead"); n != 0 {
				t.Errorf("%s l=%g: Nelder–Mead ran although the cold Newton should be certified\n%s", node.Name, l, rep)
			}
			if last, _ := rep.Last("opt-newton"); !strings.HasSuffix(last.Detail, "certified") {
				t.Errorf("%s l=%g: Newton optimum not certified\n%s", node.Name, l, rep)
			}
			p.Report = nil
			p.Injector = noNewtonStarts
			want, err := Optimize(p)
			if err != nil {
				t.Fatalf("%s l=%g (Nelder–Mead ladder): %v", node.Name, l, err)
			}
			if d := math.Abs(got.PerUnit/want.PerUnit - 1); d > 1e-12 {
				t.Errorf("%s l=%g: per-unit delay %v vs Nelder–Mead ladder %v (rel %.1e)", node.Name, l, got.PerUnit, want.PerUnit, d)
			}
			if dh, dk := math.Abs(got.H/want.H-1), math.Abs(got.K/want.K-1); dh > 1e-5 || dk > 1e-5 {
				t.Errorf("%s l=%g: argmin (%v, %v) vs Nelder–Mead ladder (%v, %v)", node.Name, l, got.H, got.K, want.H, want.K)
			}
		}
	}
}

// TestCertifiedNewtonNeverLosesToNelderMead draws problems well outside the
// paper's grids (r and c scattered around each node's, l up to 12 nH/mm,
// f ∈ [0.1, 0.9]) and checks that the ladder's answer, certified or not, is
// never worse than the Nelder–Mead ladder's, and that the certificate
// spares Nelder–Mead on almost all of them.
func TestCertifiedNewtonNeverLosesToNelderMead(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nodes := []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()}
	const n = 300
	nmRuns := 0
	for i := 0; i < n; i++ {
		node := nodes[rng.Intn(len(nodes))]
		p := Problem{
			Device: repeater.FromTech(node),
			Line: tline.Line{
				R: node.R * math.Exp(0.7*rng.NormFloat64()),
				L: 12 * tech.NHPerMM * rng.Float64(),
				C: node.C * math.Exp(0.3*rng.NormFloat64()),
			},
			F: 0.1 + 0.8*rng.Float64(),
		}
		rep := &diag.Report{}
		p.Report = rep
		got, err := Optimize(p)
		if err != nil {
			t.Fatalf("case %d %+v: %v", i, p.Line, err)
		}
		if rep.Tried("opt-nelder-mead") > 0 {
			nmRuns++
		}
		p.Report = nil
		p.Injector = noNewtonStarts
		want, err := Optimize(p)
		if err != nil {
			t.Fatalf("case %d %+v (Nelder–Mead ladder): %v", i, p.Line, err)
		}
		if got.PerUnit > want.PerUnit*(1+1e-9) {
			t.Errorf("case %d %+v f=%g: per-unit delay %v worse than the Nelder–Mead ladder's %v",
				i, p.Line, p.F, got.PerUnit, want.PerUnit)
		}
	}
	if nmRuns > n/20 {
		t.Errorf("Nelder–Mead ran on %d of %d problems", nmRuns, n)
	}
}

// TestCertifiedColdLadderWork bounds the cold ladder's work on the
// 101-point lattice of every node: no Nelder–Mead run, at most 6 Newton
// steps (the paper reports convergence in under six iterations) and at
// most 12 delay solves per optimization.
func TestCertifiedColdLadderWork(t *testing.T) {
	for _, p := range latticeProblems() {
		var evals, steps, nm int
		p.Injector = &diag.Injector{Fault: func(s diag.Site) error {
			switch s.Op {
			case "core.eval":
				evals++
			case "core.jacobian":
				steps++
			case "core.nelder-mead":
				nm++
			}
			return nil
		}}
		if _, err := OptimizeCtx(context.Background(), p); err != nil {
			t.Fatalf("l=%g: %v", p.Line.L, err)
		}
		if nm != 0 || steps > 6 || evals > 12 {
			t.Errorf("l=%g nH/mm (R=%g): %d Nelder–Mead runs, %d Newton steps, %d delay solves",
				p.Line.L/tech.NHPerMM, p.Line.R, nm, steps, evals)
		}
	}
}

// TestCertificateRejectsNonMinima: the certificate holds at the optimum and
// fails where τ/h is not stationary — off the optimum, and on the runaway
// towards k → ∞ that Newton follows from the RC optimum on a strongly
// inductive line, where the scaled residual decays although τ/h does not
// level off.
func TestCertificateRejectsNonMinima(t *testing.T) {
	p := problem(tech.Node100(), 3)
	opt, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	at := func(h, k float64) bool {
		l, err := p.localAt(h, k)
		if err != nil {
			t.Fatalf("local model at (%g, %g): %v", h, k, err)
		}
		return p.certify(&l)
	}
	if !at(opt.H, opt.K) {
		t.Error("certificate fails at the optimum")
	}
	for _, c := range []struct{ h, k float64 }{
		{opt.H * 1.2, opt.K},
		{opt.H, opt.K * 0.7},
		{opt.H * 2.5, opt.K * 5e6}, // the runaway of the RC-started Newton
	} {
		if at(c.h, c.k) {
			t.Errorf("certificate holds at non-stationary (%g, %g)", c.h, c.k)
		}
	}
	// A stationary point that is not a minimum: the certificate must see
	// the Hessian. −τ/h has the same gradient zero but negated curvature.
	l, err := p.localAt(opt.H, opt.K)
	if err != nil {
		t.Fatal(err)
	}
	_, hess := p.secondOrder(&l)
	for i := range hess {
		for j := range hess[i] {
			hess[i][j] = -hess[i][j]
		}
	}
	if l.logHessianPD(hess) {
		t.Error("negated Hessian reported positive definite")
	}
}
