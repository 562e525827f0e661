package main

import (
	"fmt"
	"math"
	"time"

	"rlcint"
	"rlcint/internal/spice"
)

// The transient catalog: both ring nodes at every 0.1 nH/mm of the Figure 11
// range 0.4–3.5 nH/mm.
const (
	ringLMin   = 4  // ×0.1 nH/mm
	ringLMax   = 35 // ×0.1 nH/mm
	ringLCount = ringLMax - ringLMin + 1
	// revisitEvery: op i with i%revisitEvery == revisitEvery-1 reruns the
	// previous op's configuration (a reduced-model cache hit); the rest
	// draw fresh configurations — 80% fresh, 20% revisits.
	revisitEvery = 5
	// collapseFromL is where Figure 11's period collapse holds on 100 nm.
	collapseFromL = 3.0 * rlcint.NHPerMM
)

// ringNodes are the two ring-oscillator nodes of Figure 11.
func ringNodes() []rlcint.Technology { return []rlcint.Technology{rlcint.Tech100(), rlcint.Tech250()} }

// ringConfig is catalog entry c: node c/ringLCount at inductance index
// c%ringLCount, at the Figure 11 bench resolution (8 sections, 6 cycles of
// 800 points) that still resolves false switching.
func ringConfig(c int) rlcint.RingConfig {
	node := ringNodes()[c/ringLCount]
	l := float64(ringLMin+c%ringLCount) * 0.1 * rlcint.NHPerMM
	return rlcint.RingConfig{Node: node, LineL: l, Sections: 8, Cycles: 6, PointsPerCycle: 800}
}

// ringRef is the stored reference measurement of one catalog entry.
type ringRef struct {
	Node       string  `json:"node"`
	L          float64 `json:"l"`
	Period     float64 `json:"period"`
	Undershoot float64 `json:"undershoot"`
	PeakJ      float64 `json:"peak_j"`
	RMSJ       float64 `json:"rms_j"`
}

// Tolerances cover the reduced-order and the full solver alike (the gate
// admits a reduced model at ≤1e-4 relative RMS per port); genref prints the
// measured reduced-vs-full spread.
const (
	tolPeriod     = 1e-4
	tolJ          = 3e-4
	tolUndershoot = 6e-4 // V, absolute
)

func genTransientRef() error {
	refs := make([]ringRef, 2*ringLCount)
	var worst [3]float64
	for c := range refs {
		cfg := ringConfig(c)
		_, m, err := rlcint.RunRing(cfg)
		if err != nil {
			return err
		}
		refs[c] = ringRef{cfg.Node.Name, cfg.LineL, m.Period, m.Undershoot, m.PeakJ, m.RMSJ}
		cfg.NoReduction = true
		_, f, err := rlcint.RunRing(cfg)
		if err != nil {
			return err
		}
		worst[0] = math.Max(worst[0], relErr(f.Period, m.Period))
		worst[1] = math.Max(worst[1], math.Max(relErr(f.PeakJ, m.PeakJ), relErr(f.RMSJ, m.RMSJ)))
		worst[2] = math.Max(worst[2], math.Abs(f.Undershoot-m.Undershoot))
	}
	fmt.Printf("transient: reduced vs full solver worst differences: period %.3g rel, J %.3g rel, undershoot %.3g V\n",
		worst[0], worst[1], worst[2])
	return saveJSON(refPath("transient.json"), refs)
}

// transientOracle checks ring measurements against the stored references
// and asserts Figure 11's period collapse on 100 nm at ≥3 nH/mm.
type transientOracle struct {
	refs []ringRef
	// collapseBelow is 80% of the largest 100 nm reference period below
	// collapseFromL: collapsed periods must fall under it.
	collapseBelow float64
}

func loadTransientOracle() (*transientOracle, error) {
	o := &transientOracle{}
	if err := loadJSON(refPath("transient.json"), &o.refs); err != nil {
		return nil, err
	}
	if len(o.refs) != 2*ringLCount {
		return nil, fmt.Errorf("transient reference has %d entries, want %d", len(o.refs), 2*ringLCount)
	}
	high := 0.0
	for c, r := range o.refs[:ringLCount] {
		if ringConfig(c).LineL < collapseFromL-1e-12 {
			high = math.Max(high, r.Period)
		}
	}
	o.collapseBelow = 0.8 * high
	return o, nil
}

func (o *transientOracle) check(c int, m rlcint.RingMetrics) error {
	r := o.refs[c]
	where := fmt.Sprintf("%s l=%.1f nH/mm", r.Node, r.L/rlcint.NHPerMM)
	if err := checkRel(where+" period", m.Period, r.Period, tolPeriod); err != nil {
		return err
	}
	if err := checkRel(where+" peak J", m.PeakJ, r.PeakJ, tolJ); err != nil {
		return err
	}
	if err := checkRel(where+" rms J", m.RMSJ, r.RMSJ, tolJ); err != nil {
		return err
	}
	if d := math.Abs(m.Undershoot - r.Undershoot); !(d <= tolUndershoot) {
		return fmt.Errorf("%s undershoot %.6g V, reference %.6g V", where, m.Undershoot, r.Undershoot)
	}
	if c < ringLCount && ringConfig(c).LineL >= collapseFromL-1e-12 && !(m.Period < o.collapseBelow) {
		return fmt.Errorf("%s: period %.4g s did not collapse below %.4g s", where, m.Period, o.collapseBelow)
	}
	return nil
}

// transientWL runs ring-oscillator transients at seeded inductances, 80%
// fresh (reduced-model build, accuracy gate, march) and 20% revisits of the
// previous configuration (model-cache hit, march only).
type transientWL struct {
	oracle *transientOracle
	ls     *deck // deals inductances
	nodes  *deck // deals technology nodes
	next   int64
	steps  []float64 // waveform samples per run of the traced window
	mor0   spice.MORStats
}

func (w *transientWL) tail() float64 { return 90 }

func (w *transientWL) setup(seed int64) error {
	o, err := loadTransientOracle()
	if err != nil {
		return err
	}
	w.oracle = o
	w.initInputs(seed)
	// Warm the reduced-model cache and the allocator with the sequence's
	// first fresh configuration and its revisit.
	c := w.config(0)
	for k := 0; k < 2; k++ {
		_, m, err := rlcint.RunRing(ringConfig(c))
		if err != nil {
			return err
		}
		if err := o.check(c, m); err != nil {
			return err
		}
	}
	return nil
}

func (w *transientWL) initInputs(seed int64) {
	w.ls = newDeck(seed, 2, ringLCount)
	w.nodes = newDeck(seed, 12, len(ringNodes()))
}

// config returns the catalog entry op i runs. Inductances and nodes are
// dealt from separate decks, so every 32 fresh ops cover the whole range.
func (w *transientWL) config(i int64) int {
	cycle, pos := i/revisitEvery, i%revisitEvery
	if pos == revisitEvery-1 {
		pos-- // revisit the previous op's configuration
	}
	f := cycle*(revisitEvery-1) + pos
	return w.nodes.at(f)*ringLCount + w.ls.at(f)
}

func (w *transientWL) op(i int64, root *active) error {
	c := w.config(i)
	var tr *tracer
	if root != nil {
		tr = root.t
	}
	sp := tr.start("ringosc.RunRing", root, i)
	wv, m, err := rlcint.RunRing(ringConfig(c))
	sp.end()
	if err != nil {
		return err
	}
	if tr != nil {
		w.steps = append(w.steps, float64(len(wv.T)))
	}
	sp = tr.start("oracle", root, i)
	defer sp.end()
	return w.oracle.check(c, m)
}

func (w *transientWL) run(window time.Duration, tr *tracer) runStats {
	if tr != nil {
		w.mor0 = spice.ReductionStats()
	}
	return closedLoop(window, tr, &w.next, "transient.run", w.op)
}

// transientProbeRuns is how many fresh configurations the probes time
// fresh, revisited and unreduced.
const transientProbeRuns = 3

func (w *transientWL) probe(tr *tracer, m metrics) error {
	runs := float64(tr.summary()["transient.run"].Count)
	if d := spice.ReductionStats(); runs > 0 {
		m["mor.engaged_ratio"] = float64(d.Engaged-w.mor0.Engaged) / runs
		m["mor.cache_hit_ratio"] = float64(d.CacheHits-w.mor0.CacheHits) / runs
		m["mor.reject_ratio"] = float64(d.Rejected-w.mor0.Rejected) / runs
		m["mor.fallback_ratio"] = float64(d.Fallbacks-w.mor0.Fallbacks) / runs
	}
	m["spice.steps_per_run"] = mean(w.steps)
	// Fresh configurations the window has not reached yet.
	for k := int64(0); k < transientProbeRuns; k++ {
		i := w.next + k
		if i%revisitEvery == revisitEvery-1 {
			continue
		}
		cfg := ringConfig(w.config(i))
		for _, name := range []string{"fresh", "revisit"} {
			sp := tr.start("ringosc.RunRing/"+name, nil, -1)
			_, _, err := rlcint.RunRing(cfg)
			sp.end()
			if err != nil {
				return err
			}
		}
		cfg.NoReduction = true
		sp := tr.start("ringosc.RunRing/full", nil, -1)
		_, _, err := rlcint.RunRing(cfg)
		sp.end()
		if err != nil {
			return err
		}
	}
	sum := tr.summary()
	m["mor.build_gate_ms"] = sum["ringosc.RunRing/fresh"].MeanMS() - sum["ringosc.RunRing/revisit"].MeanMS()
	m["mor.march_ms"] = sum["ringosc.RunRing/revisit"].MeanMS()
	m["spice.full_run_ms"] = sum["ringosc.RunRing/full"].MeanMS()
	return nil
}

func (w *transientWL) close() {}
