package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"rlcint"
)

// Request kinds of the serving mix.
const (
	kOptimize = iota
	kDelay
	kPlan
	kSweep
	kPlanPower
	kLCrit
	kRC
	kOxide
	kWire
	nKinds
)

var kindName = [nKinds]string{"optimize", "delay", "plan", "sweep", "plan-power", "lcrit", "optimize-rc", "check-oxide", "check-wire"}

var kindPath = [nKinds]string{"/v1/optimize", "/v1/delay", "/v1/plan", "/v1/sweep", "/v1/plan-power",
	"/v1/lcrit", "/v1/optimize-rc", "/v1/check/oxide", "/v1/check/wire"}

// mixCounts is the endpoint mix per mixDeck requests: optimize 55%, delay
// 15%, plan 10%, sweep 10%, plan-power 5%, and lcrit, optimize-rc and the
// two checks 5% together.
var mixCounts = [nKinds]int{110, 30, 20, 20, 10, 4, 2, 2, 2}

const mixDeck = 200

// freshEvery: one in freshEvery requests of a kind per deck (rounded down)
// uses a fresh key; optimize-rc has only three keys, so it is always hot.
// That makes 89.5% of requests hot-key cache hits.
const freshEvery = 8

// serveTechs are the technology names the mix draws from.
var serveTechs = []string{"250nm", "100nm", "100nm-eps250"}

// Wire shapes of the requests (JSON field names of the rlcd API).
type (
	optimizeQ struct {
		Tech string  `json:"tech"`
		L    float64 `json:"l"`
		F    float64 `json:"f"`
	}
	delayQ struct {
		Tech string  `json:"tech"`
		L    float64 `json:"l"`
		H    float64 `json:"h"`
		K    float64 `json:"k"`
		F    float64 `json:"f"`
	}
	planQ struct {
		Tech   string  `json:"tech"`
		L      float64 `json:"l"`
		F      float64 `json:"f"`
		Length float64 `json:"length"`
	}
	sweepQ struct {
		Tech string    `json:"tech"`
		Ls   []float64 `json:"ls"`
		F    float64   `json:"f"`
	}
	planPowerQ struct {
		Tech       string  `json:"tech"`
		L          float64 `json:"l"`
		F          float64 `json:"f"`
		Length     float64 `json:"length"`
		Alpha      float64 `json:"alpha"`
		Freq       float64 `json:"freq"`
		MaxPenalty float64 `json:"max_penalty"`
	}
	lcritQ struct {
		Tech string  `json:"tech"`
		L    float64 `json:"l"`
		H    float64 `json:"h"`
		K    float64 `json:"k"`
	}
	rcQ struct {
		Tech string `json:"tech"`
	}
	oxideQ struct {
		Tech       string  `json:"tech"`
		OvershootV float64 `json:"overshoot_v"`
	}
	wireQ struct {
		PeakJ float64 `json:"peak_j"`
		RMSJ  float64 `json:"rms_j"`
	}
)

// Response fields the oracle compares (a subset of what rlcd returns).
type (
	optimumA struct {
		H          float64 `json:"h"`
		K          float64 `json:"k"`
		Tau        float64 `json:"tau"`
		PerUnit    float64 `json:"per_unit"`
		B1         float64 `json:"b1"`
		B2         float64 `json:"b2"`
		Method     string  `json:"method"`
		Iterations int     `json:"iterations"`
	}
	delayA struct {
		Tau        float64 `json:"tau"`
		Iterations int     `json:"iterations"`
	}
	planA struct {
		Length     float64  `json:"length"`
		Stages     int      `json:"stages"`
		H          float64  `json:"h"`
		K          float64  `json:"k"`
		StageTau   float64  `json:"stage_tau"`
		Total      float64  `json:"total"`
		Continuous optimumA `json:"continuous"`
	}
	sweepLineA struct {
		Type       string  `json:"type"`
		L          float64 `json:"l"`
		H          float64 `json:"h"`
		K          float64 `json:"k"`
		Tau        float64 `json:"tau"`
		PerUnit    float64 `json:"per_unit"`
		LCrit      float64 `json:"lcrit"`
		HRatio     float64 `json:"h_ratio"`
		KRatio     float64 `json:"k_ratio"`
		DelayRatio float64 `json:"delay_ratio"`
		Penalty    float64 `json:"penalty"`
		Method     string  `json:"method"`
		Points     int     `json:"points"`
	}
	schemeA struct {
		Stages   int     `json:"stages"`
		H        float64 `json:"h"`
		K        float64 `json:"k"`
		StageTau float64 `json:"stage_tau"`
	}
	planPowerA struct {
		Length        float64   `json:"length"`
		Schemes       []schemeA `json:"schemes"`
		Delay         float64   `json:"delay"`
		Power         float64   `json:"power"`
		Baseline      planA     `json:"baseline"`
		BaselinePower float64   `json:"baseline_power"`
		PowerSaved    float64   `json:"power_saved"`
		DelayPenalty  float64   `json:"delay_penalty"`
	}
	lcritA struct {
		LCrit float64 `json:"lcrit"`
	}
	rcA struct {
		H   float64 `json:"h"`
		K   float64 `json:"k"`
		Tau float64 `json:"tau"`
	}
	oxideA struct {
		VGateMax  float64 `json:"v_gate_max"`
		Field     float64 `json:"field"`
		FieldVDD  float64 `json:"field_vdd"`
		Margin    float64 `json:"margin"`
		OverLimit bool    `json:"over_limit"`
		Critical  bool    `json:"critical"`
	}
	wireA struct {
		PeakJ      float64 `json:"peak_j"`
		RMSJ       float64 `json:"rms_j"`
		PeakMargin float64 `json:"peak_margin"`
		RMSMargin  float64 `json:"rms_margin"`
		PeakOver   bool    `json:"peak_over"`
		RMSOver    bool    `json:"rms_over"`
	}
)

// sweepSizes are the grid sizes of sweep requests (16–64 points), dealt
// evenly so every run sees the same spread of sweep costs.
var sweepSizes = []int{16, 24, 32, 40, 48, 56, 64}

// genQuery draws one request of kind k from rng: a technology node and
// inductance (0.05–5 nH/mm) plus the kind's own parameters; a sweep request
// has points grid points.
func genQuery(k int, rng *rand.Rand, points int) any {
	tn := serveTechs[rng.Intn(len(serveTechs))]
	l := (0.05 + 4.95*rng.Float64()) * rlcint.NHPerMM
	t, _ := rlcint.TechByName(tn)
	rc, _ := rlcint.OptimizeRC(t)
	scale := func() float64 { return 0.5 + 1.5*rng.Float64() }
	switch k {
	case kOptimize:
		return optimizeQ{tn, l, 0.5}
	case kDelay:
		return delayQ{tn, l, rc.H * scale(), rc.K * scale(), 0.5}
	case kPlan:
		return planQ{tn, l, 0.5, (5 + 25*rng.Float64()) * rlcint.MM}
	case kSweep:
		ls := make([]float64, points)
		for i := range ls {
			ls[i] = (0.05 + 4.95*rng.Float64()) * rlcint.NHPerMM
		}
		sort.Float64s(ls)
		return sweepQ{tn, ls, 0.5}
	case kPlanPower:
		return planPowerQ{serveTechs[rng.Intn(2)], l, 0.5, (10 + 20*rng.Float64()) * rlcint.MM, 0.15, 1e9, 0.05}
	case kLCrit:
		return lcritQ{tn, l, rc.H * scale(), rc.K * scale()}
	case kRC:
		return rcQ{tn}
	case kOxide:
		return oxideQ{tn, 0.6 * rng.Float64()}
	default:
		peak := 1e10 * (0.5 + 4*rng.Float64())
		return wireQ{peak, peak * (0.1 + 0.6*rng.Float64())} // rms ≤ peak
	}
}

// answer computes what rlcd must return for q directly through the library
// facade, in the response's JSON shape.
func answer(q any) (any, error) {
	switch q := q.(type) {
	case optimizeQ:
		t, _ := rlcint.TechByName(q.Tech)
		o, err := rlcint.Optimize(t, q.L, q.F)
		return optimumOf(o), err
	case delayQ:
		t, _ := rlcint.TechByName(q.Tech)
		m, err := rlcint.TwoPoleOf(rlcint.StageOf(t, q.L, q.H, q.K))
		if err != nil {
			return nil, err
		}
		d, err := m.Delay(q.F)
		return delayA{d.Tau, d.Iterations}, err
	case planQ:
		t, _ := rlcint.TechByName(q.Tech)
		p, err := rlcint.PlanLine(t, q.L, q.F, q.Length)
		return planA{p.Length, p.Stages, p.H, p.K, p.StageTau, p.Total, optimumOf(p.Continuous)}, err
	case sweepQ:
		t, _ := rlcint.TechByName(q.Tech)
		pts, err := rlcint.SweepBatch(context.Background(), rlcint.SweepOptions{}, t, q.Ls, q.F)
		out := make([]sweepLineA, 0, len(pts)+1)
		for _, p := range pts {
			out = append(out, sweepLineA{Type: "point", L: p.L, H: p.Opt.H, K: p.Opt.K, Tau: p.Opt.Tau,
				PerUnit: p.Opt.PerUnit, LCrit: p.LCrit, HRatio: p.HRatio, KRatio: p.KRatio,
				DelayRatio: p.DelayRatio, Penalty: p.Penalty, Method: string(p.Opt.Method)})
		}
		return append(out, sweepLineA{Type: "done", Points: len(pts)}), err
	case planPowerQ:
		t, _ := rlcint.TechByName(q.Tech)
		p, err := rlcint.PlanPower(t, q.L, q.F, q.Length, rlcint.PowerParams{Alpha: q.Alpha, Freq: q.Freq},
			rlcint.PowerPlanOptions{MaxPenalty: q.MaxPenalty})
		a := planPowerA{Length: p.Length, Delay: p.Delay, Power: p.Power,
			Baseline: planA{p.Baseline.Length, p.Baseline.Stages, p.Baseline.H, p.Baseline.K,
				p.Baseline.StageTau, p.Baseline.Total, optimumOf(p.Baseline.Continuous)},
			BaselinePower: p.BaselinePower, PowerSaved: p.PowerSaved, DelayPenalty: p.DelayPenalty}
		for _, s := range p.Schemes {
			a.Schemes = append(a.Schemes, schemeA{s.Stages, s.H, s.K, s.StageTau})
		}
		return a, err
	case lcritQ:
		t, _ := rlcint.TechByName(q.Tech)
		return lcritA{rlcint.LCrit(rlcint.StageOf(t, q.L, q.H, q.K))}, nil
	case rcQ:
		t, _ := rlcint.TechByName(q.Tech)
		rc, err := rlcint.OptimizeRC(t)
		return rcA{rc.H, rc.K, rc.Tau}, err
	case oxideQ:
		t, _ := rlcint.TechByName(q.Tech)
		r, err := rlcint.CheckOxide(t, q.OvershootV)
		return oxideA{r.VGateMax, r.Field, r.FieldVDD, r.Margin, r.OverLimit, r.Critical}, err
	case wireQ:
		r, err := rlcint.CheckWire(q.PeakJ, q.RMSJ)
		return wireA{r.PeakJ, r.RMSJ, r.PeakMargin, r.RMSMargin, r.PeakOver, r.RMSOver}, err
	}
	return nil, fmt.Errorf("unknown query %T", q)
}

func optimumOf(o rlcint.Optimum) optimumA {
	return optimumA{o.H, o.K, o.Tau, o.PerUnit, o.Model.B1, o.Model.B2, string(o.Method), o.Iterations}
}

// decodeLike decodes body into a value of want's type; a slice type takes
// one element per NDJSON line (a streamed sweep).
func decodeLike(want any, body []byte) (any, error) {
	t := reflect.TypeOf(want)
	dec := json.NewDecoder(bytes.NewReader(body))
	if t.Kind() != reflect.Slice {
		p := reflect.New(t)
		err := dec.Decode(p.Interface())
		return p.Elem().Interface(), err
	}
	out := reflect.MakeSlice(t, 0, 0)
	for dec.More() {
		p := reflect.New(t.Elem())
		if err := dec.Decode(p.Interface()); err != nil {
			return nil, err
		}
		out = reflect.Append(out, p.Elem())
	}
	return out.Interface(), nil
}

// checkAnswer verifies a response body against the facade's answer to q.
func checkAnswer(q any, body []byte) error {
	want, err := answer(q)
	if err != nil {
		return fmt.Errorf("facade: %w", err)
	}
	got, err := decodeLike(want, body)
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if !equalAnswers(got, want) {
		return fmt.Errorf("response %s differs from the facade's %+v", truncate(body), want)
	}
	return nil
}

// equalAnswers compares two decoded answers field by field, exactly: the
// server and the facade run the same solver path.
func equalAnswers(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
