package core

import (
	"context"
	"fmt"
	"math"

	"rlcint/internal/diag"
	"rlcint/internal/runctl"
)

// LinePlan is a realizable repeater plan for a net of a given total length:
// the optimizer's continuous h is rounded to an integer stage count and the
// delay re-evaluated at the actual segment length.
type LinePlan struct {
	Length   float64 // total net length, m
	Stages   int     // number of repeater stages (≥ 1)
	H        float64 // realized segment length = Length/Stages
	K        float64 // repeater size
	StageTau float64 // per-stage delay at the realized h, s
	Total    float64 // end-to-end delay = Stages·StageTau, s
	// Continuous is the unrounded optimum the plan was derived from.
	Continuous Optimum
}

// PlanLine turns the continuous optimum into a realizable plan for a net of
// length L: it evaluates the candidate stage counts around L/h_opt
// (including the ±1 neighbours) at the re-optimized k for each candidate's
// segment length, and returns the fastest.
func PlanLine(p Problem, L float64) (LinePlan, error) {
	return PlanLineCtx(context.Background(), p, L)
}

// PlanLineCtx is PlanLine under run control: cancellation, the context
// deadline, and p.Limits are checked at every inner optimizer iteration, so
// a stopped plan aborts promptly with a typed stop error.
func PlanLineCtx(ctx context.Context, p Problem, L float64) (LinePlan, error) {
	if err := p.Validate(); err != nil {
		return LinePlan{}, err
	}
	if L <= 0 || math.IsNaN(L) || math.IsInf(L, 0) {
		return LinePlan{}, diag.Domainf("core.PlanLine", "requires positive finite length, got %g", L)
	}
	// One workspace serves the optimization and every fixed-h refinement
	// below, so the plan path allocates a handful of buffers once instead
	// of churning per candidate evaluation.
	opt, err := OptimizeWS(ctx, p, NewWorkspace())
	if err != nil {
		return LinePlan{}, err
	}
	// Wire the context into the refinement evaluations below: Eval checks
	// p.ctl, so a cancelled plan stops between candidate evaluations instead
	// of finishing the golden-section scans on a dead request.
	p.ctl = runctl.New(ctx, runctl.Limits{})
	nIdeal := L / opt.H
	best := LinePlan{Continuous: opt, Length: L, Total: math.Inf(1)}
	for _, n := range []int{int(math.Floor(nIdeal)), int(math.Ceil(nIdeal)), int(math.Round(nIdeal)) + 1} {
		if n < 1 {
			n = 1
		}
		h := L / float64(n)
		// Re-optimize the repeater size for this fixed segment length.
		k, err := optimizeKAtFixedH(p, h, opt.K)
		if err != nil {
			// A stop mid-scan surfaces as an infeasible candidate; recover
			// the typed stop so callers see ErrCancelled, not "no plan".
			if e := p.ctl.Check("core.PlanLine"); e != nil {
				return LinePlan{}, e
			}
			continue
		}
		_, d, err := p.Eval(h, k)
		if err != nil {
			if runctl.IsStop(err) {
				return LinePlan{}, err
			}
			continue
		}
		total := float64(n) * d.Tau
		if total < best.Total {
			best.Stages = n
			best.H = h
			best.K = k
			best.StageTau = d.Tau
			best.Total = total
		}
	}
	if math.IsInf(best.Total, 1) {
		// Every candidate's refinement or delay evaluation failed: the
		// solver did not converge on any realizable plan.
		de := diag.New(diag.ErrNonConvergence, "core.PlanLine")
		de.Detail = fmt.Sprintf("no feasible stage count for L=%g", L)
		return LinePlan{}, de
	}
	return best, nil
}

// optimizeKAtFixedH minimizes the stage delay over k at a fixed segment
// length using golden-section search around the seed.
func optimizeKAtFixedH(p Problem, h, kSeed float64) (float64, error) {
	obj := func(k float64) float64 {
		_, d, err := p.Eval(h, k)
		if err != nil {
			return math.Inf(1)
		}
		return d.Tau
	}
	lo, hi := kSeed/8, kSeed*8
	// Coarse scan to bracket the minimum (the objective is unimodal in k
	// for physical stages, but guard anyway).
	const nScan = 24
	bestK, bestV := kSeed, obj(kSeed)
	for i := 0; i <= nScan; i++ {
		k := lo * math.Pow(hi/lo, float64(i)/nScan)
		if v := obj(k); v < bestV {
			bestK, bestV = k, v
		}
	}
	a, b := bestK/1.5, bestK*1.5
	k := bestK
	// Golden-section refinement.
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := obj(x1), obj(x2)
	for i := 0; i < 60 && (b-a) > 1e-6*k; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = obj(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = obj(x2)
		}
	}
	k = 0.5 * (a + b)
	if math.IsInf(obj(k), 1) {
		return 0, fmt.Errorf("core: no feasible k at h=%g", h)
	}
	return k, nil
}
