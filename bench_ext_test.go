package rlcint

// Benchmarks for the library's extensions and key substrates, complementing
// the per-figure benchmarks in bench_test.go.

import (
	"strings"
	"testing"

	"rlcint/internal/core"
	"rlcint/internal/diag"
)

// BenchmarkPlanLine measures a full integer-stage repeater plan.
func BenchmarkPlanLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanLine(Tech100(), 2*NHPerMM, 0.5, 45*MM); err != nil {
			b.Fatal(err)
		}
	}
	reportWork(b, func(inj *diag.Injector) error {
		_, err := core.PlanLine(benchProblem(Tech100(), 2*NHPerMM, 0.5, inj), 45*MM)
		return err
	})
}

// BenchmarkDelayRamp measures the finite-rise-time delay solve.
func BenchmarkDelayRamp(b *testing.B) {
	b.ReportAllocs()
	st := StageOf(Tech100(), 2*NHPerMM, 11.1*MM, 528)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DelayRamp(st, 0.5, 50*PS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrosstalk measures one coupled-pair transient (reduced ladder),
// amortizing circuit construction across iterations with a workspace the
// way a sweep or Monte-Carlo driver would.
func BenchmarkCrosstalk(b *testing.B) {
	b.ReportAllocs()
	cfg := XtalkConfig{
		Pair:     CoupledPair{R: 4400, L: 2e-6, Cg: 8e-11, Cm: 2e-11, Lm: 1.4e-6},
		H:        3 * MM,
		Sections: 12,
	}
	var w XtalkWorkspace
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffectiveLoopInductance measures the return-path solve for a
// 12-conductor return set.
func BenchmarkEffectiveLoopInductance(b *testing.B) {
	b.ReportAllocs()
	n := Tech100()
	sig := Bar{X: 0, Y: 0, W: n.Width, T: n.Height}
	var rets []Bar
	for i := 1; i <= 12; i++ {
		rets = append(rets, Bar{X: float64(i) * n.Pitch, Y: 0, W: n.Width, T: n.Height})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EffectiveLoopInductance(11.1*MM, sig, rets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetlistParse measures parsing a ~200-element deck.
func BenchmarkNetlistParse(b *testing.B) {
	b.ReportAllocs()
	var sb strings.Builder
	sb.WriteString("generated ladder\nV1 n0 0 PULSE(0 1 0 10p 10p 1n 2n)\n")
	for i := 0; i < 64; i++ {
		sb.WriteString("R")
		sb.WriteString(itoa(i))
		sb.WriteString(" n")
		sb.WriteString(itoa(i))
		sb.WriteString(" m")
		sb.WriteString(itoa(i))
		sb.WriteString(" 0.8\nL")
		sb.WriteString(itoa(i))
		sb.WriteString(" m")
		sb.WriteString(itoa(i))
		sb.WriteString(" n")
		sb.WriteString(itoa(i + 1))
		sb.WriteString(" 1n\nC")
		sb.WriteString(itoa(i))
		sb.WriteString(" n")
		sb.WriteString(itoa(i + 1))
		sb.WriteString(" 0 10f\n")
	}
	sb.WriteString(".end\n")
	deck := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseNetlist(strings.NewReader(deck)); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
