package pade

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// maxDelayIters bounds the Newton iterations of one delay solve. The paper
// reports ≤4 at its operating points; the bound guards the pathology of a
// start where v′ → 0 (the π/β end of the underdamped bracket), which took
// tens of safeguarded iterations.
const maxDelayIters = 12

// diffTol is the differential bound |Δτ| ≤ diffTol·max(b1, √b2) between the
// closed-form-bracket kernel and the scan oracle.
const diffTol = 1e-11

// randomModels draws n models with b1 spread over 24 decades and damping
// ratio ζ log-uniform in [0.05, 20]; every tenth model sits inside the
// critical-damping band, where Step switches to the confluent formula.
func randomModels(t *testing.T, n int, seed int64) []Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Model, 0, n)
	for i := 0; i < n; i++ {
		b1 := math.Pow(10, -18+24*rng.Float64())
		zeta := math.Exp(math.Log(0.05) + math.Log(400)*rng.Float64())
		if i%10 == 0 {
			// |disc| ≤ criticalTol·b1² ⇔ ζ² within criticalTol/4 of 1.
			zeta = math.Sqrt(1 + criticalTol/4*(2*rng.Float64()-1))
		}
		b2 := b1 * b1 / (4 * zeta * zeta)
		m, err := New(b1, b2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// checkAgainstOracle compares Delay and DelaySeeded (hint perturbed by ±10%)
// with the scan oracle at f ∈ {0.1, 0.5, 0.9}, bounding both the difference
// and the Newton iteration count. It returns the worst |Δτ|/max(b1, √b2).
func checkAgainstOracle(t *testing.T, label string, m Model) float64 {
	t.Helper()
	scale := math.Max(m.B1, math.Sqrt(m.B2))
	worst := 0.0
	for _, f := range []float64{0.1, 0.5, 0.9} {
		want, err := scanDelay(m, f)
		if err != nil {
			t.Fatalf("%s f=%g: oracle: %v", label, f, err)
		}
		check := func(kind string, got DelayResult, err error) {
			if err != nil {
				t.Fatalf("%s f=%g %s: %v", label, f, kind, err)
			}
			d := math.Abs(got.Tau-want) / scale
			worst = math.Max(worst, d)
			if d > diffTol {
				t.Errorf("%s (b1=%g b2=%g ζ=%g) f=%g %s: τ=%.17g oracle %.17g (|Δτ|/scale %.2e)",
					label, m.B1, m.B2, m.Zeta(), f, kind, got.Tau, want, d)
			}
			if got.Iterations > maxDelayIters {
				t.Errorf("%s (ζ=%g) f=%g %s: %d Newton iterations > %d",
					label, m.Zeta(), f, kind, got.Iterations, maxDelayIters)
			}
		}
		got, err := m.Delay(f)
		check("cold", got, err)
		for _, s := range []float64{0.9, 1.1} {
			got, err := m.DelaySeeded(nil, f, want*s)
			check("seeded", got, err)
		}
	}
	return worst
}

func TestDelayMatchesScanOracleRandom(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 400
	}
	worst := 0.0
	for i, m := range randomModels(t, n, 1) {
		worst = math.Max(worst, checkAgainstOracle(t, "random#"+strconv.Itoa(i), m))
	}
	t.Logf("worst |Δτ|/max(b1,√b2) = %.2e over %d models", worst, n)
}

func TestDelayMatchesScanOracleCanonical(t *testing.T) {
	// Figure 2's canonical responses (ωn = 1) plus the paper's 100 nm stage.
	for _, zeta := range []float64{2, 1, 0.3} {
		m, err := New(2*zeta, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "fig2", m)
	}
	for _, l := range []float64{0, 0.5, 1, 2, 3, 4.5} {
		m, err := FromStage(stage100nm(l))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "100nm", m)
	}
}

// TestFirstCrossingBracketIsMonotone checks the closed-form bracket's
// contract directly: v(lo) < f ≤ v(hi) and v′ ≥ 0 across [lo, hi], so the
// bracket holds exactly one crossing, the first.
func TestFirstCrossingBracketIsMonotone(t *testing.T) {
	for i, m := range randomModels(t, 2000, 2) {
		for _, f := range []float64{0.1, 0.5, 0.9, 0.999} {
			lo, hi := m.firstCrossingBracket(f)
			if !(m.Step(lo) < f && m.Step(hi) >= f) {
				t.Fatalf("model %d (ζ=%g) f=%g: [%g, %g] does not straddle f: v=%g, %g",
					i, m.Zeta(), f, lo, hi, m.Step(lo), m.Step(hi))
			}
			const n = 64
			for j := 1; j < n; j++ {
				tj := lo + (hi-lo)*float64(j)/n
				if d := m.StepDeriv(tj); d < 0 {
					t.Fatalf("model %d (ζ=%g) f=%g: v′(%g) = %g < 0 inside [%g, %g]",
						i, m.Zeta(), f, tj, d, lo, hi)
				}
			}
		}
	}
}
