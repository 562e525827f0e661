package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"rlcint"
	"rlcint/internal/core"
	"rlcint/internal/diag"
	"rlcint/internal/repeater"
	"rlcint/internal/tline"
)

// The sweep workload's inductance lattice: latticeN points latticeStep
// apart starting at latticeStep (0.05–5 nH/mm). Index j ≡ 2 (mod 8) is the
// paper's 13-point grid 0.1, 0.5, …, 4.9 nH/mm of Figures 4–8.
const (
	latticeN    = 100
	latticeStep = 0.05 * rlcint.NHPerMM
	jobPoints   = 16 // grid points per node in one job
)

func latticeL(j int) float64 { return float64(j) * latticeStep }

// paperGridIndex returns the row of lattice point j in the figure CSVs.
func paperGridIndex(j int) (int, bool) {
	if j%8 != 2 {
		return 0, false
	}
	return (j - 2) / 8, true
}

// sweepNodes are the three Table 1 nodes in the figure CSVs' column order.
func sweepNodes() []rlcint.Technology {
	return []rlcint.Technology{rlcint.Tech250(), rlcint.Tech100(), rlcint.Tech100Eps250()}
}

// sweepRefPoint is one cold-engine optimum of the stored reference table.
type sweepRefPoint struct {
	PerUnit    float64 `json:"per_unit"`
	H          float64 `json:"h"`
	K          float64 `json:"k"`
	LCrit      float64 `json:"lcrit"`
	HRatio     float64 `json:"h_ratio"`
	KRatio     float64 `json:"k_ratio"`
	DelayRatio float64 `json:"delay_ratio"`
	Penalty    float64 `json:"penalty"`
}

// sweepRef holds, per node, the reference optimum at every lattice point
// (Points[node][j-1]).
type sweepRef struct {
	Nodes  []string          `json:"nodes"`
	Points [][]sweepRefPoint `json:"points"`
}

func genSweepRef() error {
	ls := make([]float64, latticeN)
	for j := 1; j <= latticeN; j++ {
		ls[j-1] = latticeL(j)
	}
	rows, err := rlcint.SweepNodes(context.Background(), rlcint.SweepOptions{}, sweepNodes(), ls, 0.5)
	if err != nil {
		return err
	}
	var ref sweepRef
	for _, row := range rows {
		ref.Nodes = append(ref.Nodes, row.Node.Name)
		pts := make([]sweepRefPoint, len(row.Points))
		for i, p := range row.Points {
			pts[i] = sweepRefPoint{p.Opt.PerUnit, p.Opt.H, p.Opt.K, p.LCrit, p.HRatio, p.KRatio, p.DelayRatio, p.Penalty}
		}
		ref.Points = append(ref.Points, pts)
	}
	return saveJSON(refPath("sweep.json"), ref)
}

// sweepOracle checks batched-sweep output against the stored lattice
// reference and, on the paper's grid, against the committed figure CSVs.
type sweepOracle struct {
	ref  sweepRef
	figs [5][][]float64 // out/fig4.csv … out/fig8.csv
}

// Tolerances: the warm engine matches the cold reference to ≤1e-12 on the
// per-unit delay and to the stationarity tolerance (~1e-6) on h and k. The
// figure CSVs carry 9 significant digits.
const (
	tolPerUnit  = 1e-9
	tolHK       = 1e-5
	tolFigDelay = 1e-8
)

func loadSweepOracle() (*sweepOracle, error) {
	o := &sweepOracle{}
	if err := loadJSON(refPath("sweep.json"), &o.ref); err != nil {
		return nil, err
	}
	if len(o.ref.Points) != 3 {
		return nil, fmt.Errorf("sweep reference has %d nodes, want 3", len(o.ref.Points))
	}
	for i := range o.figs {
		rows, err := readFigureCSV(filepath.Join(repoRoot, "out", fmt.Sprintf("fig%d.csv", i+4)))
		if err != nil {
			return nil, err
		}
		if len(rows) != 13 {
			return nil, fmt.Errorf("fig%d.csv has %d rows, want 13", i+4, len(rows))
		}
		o.figs[i] = rows
	}
	return o, nil
}

// check verifies one swept point of node row r at lattice index j.
func (o *sweepOracle) check(r, j int, p rlcint.SweepPoint) error {
	want := o.ref.Points[r][j-1]
	where := fmt.Sprintf("%s l=%.2f nH/mm", o.ref.Nodes[r], float64(j)*0.05)
	for _, c := range []struct {
		what      string
		got, want float64
		tol       float64
	}{
		{"per-unit delay", p.Opt.PerUnit, want.PerUnit, tolPerUnit},
		{"h", p.Opt.H, want.H, tolHK},
		{"k", p.Opt.K, want.K, tolHK},
	} {
		if err := checkRel(where+" "+c.what, c.got, c.want, c.tol); err != nil {
			return err
		}
	}
	g, ok := paperGridIndex(j)
	if !ok {
		return nil
	}
	for i, c := range []struct {
		got, tol float64
	}{
		{p.LCrit / rlcint.NHPerMM, tolHK},
		{p.HRatio, tolHK},
		{p.KRatio, tolHK},
		{p.DelayRatio, tolFigDelay},
		{p.Penalty, tolFigDelay},
	} {
		if err := checkRel(fmt.Sprintf("%s fig%d", where, i+4), c.got, o.figs[i][g][r+1], c.tol); err != nil {
			return err
		}
	}
	return nil
}

// sweepWL is the cmd/figures path for Figures 4–8: the three Table 1 nodes
// swept by the batched engine with warm-start continuation, one job per op.
type sweepWL struct {
	seed   int64
	oracle *sweepOracle
	next   int64
}

func (w *sweepWL) tail() float64 { return 90 }

func (w *sweepWL) setup(seed int64) error {
	w.seed = seed
	o, err := loadSweepOracle()
	if err != nil {
		return err
	}
	w.oracle = o
	// Two untimed jobs fault in the code and the allocator's spans.
	for i := int64(-2); i < 0; i++ {
		if err := w.op(i, nil); err != nil {
			return err
		}
	}
	return nil
}

// job returns op i's ascending lattice indices (1-based), jobPoints of them.
func (w *sweepWL) job(i int64) []int {
	perm := rngFor(w.seed, 1, uint64(i)).Perm(latticeN)[:jobPoints]
	for k := range perm {
		perm[k]++
	}
	sort.Ints(perm)
	return perm
}

func jobLs(js []int) []float64 {
	ls := make([]float64, len(js))
	for k, j := range js {
		ls[k] = latticeL(j)
	}
	return ls
}

func (w *sweepWL) op(i int64, root *active) error {
	js := w.job(i)
	ls := jobLs(js)
	var tr *tracer
	if root != nil {
		tr = root.t
	}
	sp := tr.start("core.SweepNodes", root, i)
	rows, err := rlcint.SweepNodes(context.Background(), rlcint.SweepOptions{Warm: true}, sweepNodes(), ls, 0.5)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("oracle", root, i)
	defer sp.end()
	for r, row := range rows {
		if len(row.Points) != len(js) {
			return fmt.Errorf("%s: %d of %d points", row.Node.Name, len(row.Points), len(js))
		}
		for c, p := range row.Points {
			if err := w.oracle.check(r, js[c], p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *sweepWL) run(window time.Duration, tr *tracer) runStats {
	return closedLoop(window, tr, &w.next, "sweep.job", w.op)
}

// sweepProbeJobs is how many jobs the per-layer probes replay.
const sweepProbeJobs = 3

func (w *sweepWL) probe(tr *tracer, m metrics) error {
	var cp coreProbe
	for k := int64(0); k < sweepProbeJobs; k++ {
		i := w.next + k
		ls := jobLs(w.job(i))
		for _, node := range sweepNodes() {
			if err := cp.run(tr, i, node, ls); err != nil {
				return err
			}
			sp1 := tr.start("core.SweepBatch/workers=1", nil, i)
			_, err1 := rlcint.SweepBatch(context.Background(), rlcint.SweepOptions{Warm: true, Workers: 1}, node, ls, 0.5)
			sp1.end()
			spN := tr.start("core.SweepBatch/workers=default", nil, i)
			_, errN := rlcint.SweepBatch(context.Background(), rlcint.SweepOptions{Warm: true}, node, ls, 0.5)
			spN.end()
			if err1 != nil || errN != nil {
				return fmt.Errorf("batch probe: %v, %v", err1, errN)
			}
		}
	}
	cp.report(tr, m)
	sum := tr.summary()
	if d := sum["core.SweepBatch/workers=default"].MeanMS(); d > 0 {
		m["batch.speedup"] = sum["core.SweepBatch/workers=1"].MeanMS() / d
	}
	return nil
}

func (w *sweepWL) close() {}

// siteCounter is a count-only fault injector: it counts the optimizer's
// fault sites and never injects.
type siteCounter struct{ eval, stationarity atomic.Int64 }

func (c *siteCounter) injector() *diag.Injector {
	return &diag.Injector{Fault: func(s diag.Site) error {
		switch s.Op {
		case "core.eval":
			c.eval.Add(1)
		case "core.stationarity":
			c.stationarity.Add(1)
		}
		return nil
	}}
}

// coreProbe replays optimizations along an inductance grid the way the
// batched engine does (warm-start chained from the previous optimum) and
// cold, counting delay evaluations and ladder rungs.
type coreProbe struct {
	warm, cold           siteCounter
	nWarm, nCold         int
	iters, nm, tried, ok int
}

func (cp *coreProbe) run(tr *tracer, op int64, node rlcint.Technology, ls []float64) error {
	base := core.Problem{
		Device: repeater.FromTech(node),
		Line:   tline.Line{R: node.R, C: node.C},
		F:      0.5,
	}
	ctx := context.Background()
	ws := core.NewWorkspace()
	seedOpt, err := core.OptimizeWS(ctx, base, ws) // the row's l=0 optimum
	if err != nil {
		return err
	}
	seed := seedOpt.AsSeed()
	for _, l := range ls {
		p := base
		p.Line.L = l
		rep := &diag.Report{}
		p.Report = rep
		p.Injector = cp.warm.injector()
		sp := tr.start("core.OptimizeSeeded", nil, op)
		opt, err := core.OptimizeSeeded(ctx, p, seed, ws)
		sp.end()
		if err != nil {
			return err
		}
		seed = opt.AsSeed()
		cp.nWarm++
		cp.iters += opt.Iterations
		if rep.Tried("opt-nelder-mead") > 0 {
			cp.nm++
		}
		for _, a := range rep.Attempts {
			if a.Rung == "warm-start" {
				cp.tried++
				if a.Outcome == diag.OutcomeOK && rep.Tried("opt-nelder-mead") == 0 {
					cp.ok++
				}
			}
		}
		dp := tr.start("pade.Delay", nil, op)
		_, err = opt.Model.Delay(0.5)
		dp.end()
		if err != nil {
			return err
		}

		p.Report = nil
		p.Injector = cp.cold.injector()
		sp = tr.start("core.OptimizeWS", nil, op)
		_, err = core.OptimizeWS(ctx, p, ws)
		sp.end()
		if err != nil {
			return err
		}
		cp.nCold++
	}
	return nil
}

func (cp *coreProbe) report(tr *tracer, m metrics) {
	sum := tr.summary()
	m["pade.delay_us"] = 1e3 * sum["pade.Delay"].MeanMS()
	m["core.opt_warm_ms"] = sum["core.OptimizeSeeded"].MeanMS()
	m["core.opt_cold_ms"] = sum["core.OptimizeWS"].MeanMS()
	if cp.nWarm > 0 {
		n := float64(cp.nWarm)
		m["core.evals_per_opt.warm"] = float64(cp.warm.eval.Load()) / n
		m["core.newton_iters_per_opt"] = float64(cp.iters) / n
		m["core.stationarity_per_opt"] = float64(cp.warm.stationarity.Load()) / n
		m["core.nm_share"] = float64(cp.nm) / n
	}
	if cp.nCold > 0 {
		m["core.evals_per_opt.cold"] = float64(cp.cold.eval.Load()) / float64(cp.nCold)
	}
	if cp.tried > 0 {
		m["core.warm_accept_ratio"] = float64(cp.ok) / float64(cp.tried)
	}
}
