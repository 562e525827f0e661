package pade_test

import (
	"math"
	"testing"

	"rlcint/internal/core"
	"rlcint/internal/num"
	"rlcint/internal/pade"
	"rlcint/internal/tech"
)

// TestDelayMatchesScanOracleAtFigureOptima runs the differential check on
// the two-pole models at the optima of Figures 4–8 (cmd/figures' grid on
// all three nodes) and at their l = 0 references.
func TestDelayMatchesScanOracleAtFigureOptima(t *testing.T) {
	ls := append([]float64{0}, num.Linspace(0.1e-6, 4.9e-6, 13)...)
	worst := 0.0
	for _, node := range []tech.Node{tech.Node250(), tech.Node100(), tech.Node100WithEps250()} {
		pts, err := core.Sweep(node, ls, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			worst = math.Max(worst, pade.CheckAgainstOracle(t, node.Name, pt.Opt.Model))
		}
	}
	t.Logf("worst |Δτ|/max(b1,√b2) = %.2e", worst)
}
