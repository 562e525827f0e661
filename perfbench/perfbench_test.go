package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"rlcint"
	"rlcint/internal/pdn"
)

func init() { repoRoot = ".." }

func TestSelectTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.9, true},
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{9999, 99, true},    // 9 beyond p99.9
		{1000, 99, true},    // exactly 10 beyond p99
		{999, 90, true},
		{100, 90, true}, // exactly 10 beyond p90
		{99, 0, false},
		{0, 0, false},
	} {
		got, ok := selectTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("selectTail(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("selectTail(%d) = p%g leaves only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
		if n := beyond(len(xs), c.p); n != 1000-int(c.want) {
			t.Errorf("beyond(1000, %g) = %d, want %d", c.p, n, 1000-int(c.want))
		}
	}
}

// TestOpenLoopChargesStallToLaterRequests drives the generator against a
// fake single-connection handler whose first request stalls: later requests
// must still be sent on schedule, and the time they wait behind the stall
// must appear in their latency, measured from when they were due.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	sched := make([]time.Duration, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
	}
	var conn sync.Mutex // one connection: requests are served one at a time
	send := func(ctx context.Context, i int) error {
		conn.Lock()
		defer conn.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	res := openLoop(context.Background(), time.Now(), sched, send)
	if len(res) != len(sched) {
		t.Fatalf("%d results, want %d", len(res), len(sched))
	}
	for i, r := range res {
		if r.Late() > 50*time.Millisecond {
			t.Errorf("request %d sent %v late: the generator waited for the stall", i, r.Late())
		}
		// Request i is due at 10i ms but cannot be served before the stall
		// ends at 200 ms.
		if wait := stall - sched[i]; i > 0 && r.Latency() < wait-5*time.Millisecond {
			t.Errorf("request %d latency %v, want ≥ %v of stall charged", i, r.Latency(), wait)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	s := poissonSchedule(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if n := len(s); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
}

// inputs lists the first n generated inputs of every workload for seed.
func inputs(seed int64, n int64) map[string][]any {
	out := map[string][]any{}
	sw := &sweepWL{seed: seed}
	tw := &transientWL{}
	tw.initInputs(seed)
	pw := &pdnWL{}
	pw.initInputs(seed)
	sv := &serveWL{}
	sv.initMix(seed)
	for i := int64(0); i < n; i++ {
		out["sweep"] = append(out["sweep"], sw.job(i))
		out["transient"] = append(out["transient"], tw.config(i))
		z, c := pw.pick(i)
		out["pdn-mesh"] = append(out["pdn-mesh"], [2]any{z, c})
		r := sv.request(i)
		out["serve-mixed"] = append(out["serve-mixed"], [3]any{r.kind, r.hot, string(r.body)})
	}
	out["schedule"] = append(out["schedule"], poissonSchedule(rngFor(seed, 9, 0), nominalRate, time.Second))
	return out
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := inputs(7, 400), inputs(7, 400), inputs(8, 400)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// TestInputShares pins the mix properties BENCHMARK.json's workload notes
// cite: 20% transient revisits, one pdn op in four an impedance profile, and
// the serving endpoint mix with ~89.5% hot keys.
func TestInputShares(t *testing.T) {
	const n = 4000
	tw := &transientWL{}
	tw.initInputs(3)
	revisits := 0
	for i := int64(1); i < n; i++ {
		if tw.config(i) == tw.config(i-1) {
			revisits++
		}
	}
	if share := float64(revisits) / n; share < 0.19 || share > 0.22 {
		t.Errorf("transient revisit share %.3f, want ~0.2", share)
	}
	pw := &pdnWL{}
	pw.initInputs(3)
	sizes := map[int]bool{}
	z := 0
	for i := int64(0); i < n; i++ {
		imp, c := pw.pick(i)
		if imp {
			z++
		} else {
			sizes[irSpec(c).NX] = true
		}
	}
	if z != n/4 || len(sizes) != len(irSizes) {
		t.Errorf("pdn: %d impedance ops of %d, %d mesh sizes", z, n, len(sizes))
	}
	sv := &serveWL{}
	sv.initMix(3)
	var kinds [nKinds]int
	hot := 0
	for i := int64(0); i < n; i++ {
		r := sv.request(i)
		kinds[r.kind]++
		if r.hot >= 0 {
			hot++
		}
	}
	if got := float64(hot) / n; got != 0.895 {
		t.Errorf("serve hot share %.4f, want 0.895", got)
	}
	for k, c := range mixCounts {
		if kinds[k] != c*n/mixDeck {
			t.Errorf("serve %s: %d of %d, want %d", kindName[k], kinds[k], n, c*n/mixDeck)
		}
	}
}

func TestSweepOracleRejectsPerturbedResult(t *testing.T) {
	o, err := loadSweepOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{10, 37} { // a paper-grid point and another lattice point
		ref := o.ref.Points[1][j-1]
		good := rlcint.SweepPoint{
			Opt:   rlcint.Optimum{H: ref.H, K: ref.K, PerUnit: ref.PerUnit},
			LCrit: ref.LCrit, HRatio: ref.HRatio, KRatio: ref.KRatio, DelayRatio: ref.DelayRatio, Penalty: ref.Penalty,
		}
		if err := o.check(1, j, good); err != nil {
			t.Fatalf("reference point rejected: %v", err)
		}
		for name, bad := range map[string]func(p *rlcint.SweepPoint){
			"per-unit delay": func(p *rlcint.SweepPoint) { p.Opt.PerUnit *= 1 + 1e-8 },
			"h":              func(p *rlcint.SweepPoint) { p.Opt.H *= 1 + 1e-4 },
			"k":              func(p *rlcint.SweepPoint) { p.Opt.K *= 1 - 1e-4 },
		} {
			p := good
			bad(&p)
			if o.check(1, j, p) == nil {
				t.Errorf("l index %d: perturbed %s accepted", j, name)
			}
		}
	}
	// On the paper grid the figure CSVs are checked too.
	ref := o.ref.Points[0][9]
	p := rlcint.SweepPoint{
		Opt:   rlcint.Optimum{H: ref.H, K: ref.K, PerUnit: ref.PerUnit},
		LCrit: ref.LCrit, HRatio: ref.HRatio, KRatio: ref.KRatio, DelayRatio: ref.DelayRatio * (1 + 1e-6), Penalty: ref.Penalty,
	}
	if o.check(0, 10, p) == nil {
		t.Error("delay ratio off Figure 7 accepted")
	}
}

func TestTransientOracleRejectsPerturbedResult(t *testing.T) {
	o, err := loadTransientOracle()
	if err != nil {
		t.Fatal(err)
	}
	metricsOf := func(r ringRef) rlcint.RingMetrics {
		return rlcint.RingMetrics{Period: r.Period, Undershoot: r.Undershoot, PeakJ: r.PeakJ, RMSJ: r.RMSJ}
	}
	collapsed := ringLCount - 1 // 100 nm at 3.5 nH/mm
	for _, c := range []int{0, collapsed, ringLCount + 7} {
		if err := o.check(c, metricsOf(o.refs[c])); err != nil {
			t.Fatalf("reference %d rejected: %v", c, err)
		}
		for name, bad := range map[string]func(m *rlcint.RingMetrics){
			"period":     func(m *rlcint.RingMetrics) { m.Period *= 1 + 1e-3 },
			"peak J":     func(m *rlcint.RingMetrics) { m.PeakJ *= 1.01 },
			"rms J":      func(m *rlcint.RingMetrics) { m.RMSJ *= 0.99 },
			"undershoot": func(m *rlcint.RingMetrics) { m.Undershoot += 0.01 },
		} {
			m := metricsOf(o.refs[c])
			bad(&m)
			if o.check(c, m) == nil {
				t.Errorf("config %d: perturbed %s accepted", c, name)
			}
		}
	}
	// A 100 nm ring at ≥3 nH/mm that did not collapse fails even if the
	// reference itself were wrong the same way.
	o.refs[collapsed].Period = 1.01 * o.collapseBelow
	m := metricsOf(o.refs[collapsed])
	if o.check(collapsed, m) == nil {
		t.Error("uncollapsed period at 3.5 nH/mm accepted")
	}
}

func TestPDNOracleRejectsPerturbedResult(t *testing.T) {
	var ref pdnRef
	if err := loadJSON(refPath("pdn.json"), &ref); err != nil {
		t.Fatal(err)
	}
	m, err := pdn.Build(irSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.SolveIR()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIR(m, r, ref.IR[0]); err != nil {
		t.Fatalf("reference solve rejected: %v", err)
	}
	bad := *r
	bad.WorstDrop *= 1 + 1e-5
	if checkIR(m, &bad, ref.IR[0]) == nil {
		t.Error("perturbed worst drop accepted")
	}
	bad = *r
	bad.V = append([]float64(nil), r.V...)
	bad.V[m.Bumps()[0]] -= 1e-3 // a bump sourcing 25 mA too much
	if checkIR(m, &bad, ref.IR[0]) == nil {
		t.Error("bump current imbalance accepted")
	}
}

func TestServeOracleRejectsPerturbedResult(t *testing.T) {
	q := optimizeQ{"100nm", 2e-6, 0.5}
	want, err := answer(q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(want)
	if err := checkAnswer(q, body); err != nil {
		t.Fatalf("facade answer rejected: %v", err)
	}
	bad := want.(optimumA)
	bad.H *= 1 + 1e-12
	body, _ = json.Marshal(bad)
	if checkAnswer(q, body) == nil {
		t.Error("perturbed optimum accepted")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metric names and
// units in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Fatalf("%d metrics in the code, %d in BENCHMARK.json", len(c.defs), len(c.spec))
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
}
