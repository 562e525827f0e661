package main

import (
	"context"
	"fmt"
	"time"

	"rlcint/internal/pdn"
	"rlcint/internal/runctl"
	"rlcint/internal/sparse"
)

// The IR-drop catalog: square meshes of 80–160 nodes a side (6.4k–25.6k
// nodes, the IC(0)-CG range) × four hotspot sites × two load mixes.
var (
	irSizes   = []int{80, 90, 100, 110, 120, 130, 140, 150, 160}
	irHot     = [][2]float64{{0.5, 0.5}, {0.25, 0.7}, {0.7, 0.3}, {0.35, 0.35}} // fractions of the side
	irLoads   = [][2]float64{{0.1e-3, 50e-3}, {0.06e-3, 80e-3}}                 // A per node, A at the hotspot
	irCatalog = len(irSizes) * len(irHot) * len(irLoads)
)

// The impedance catalog: a 32×32 mesh (2048 real unknowns, the ILU(0)-GMRES
// path) probed at four sites under two bump arrays.
const (
	zSide    = 32
	zPoints  = 8
	zCatalog = 8
	// impedanceEvery: op i with i%impedanceEvery == impedanceEvery-1 is an
	// impedance profile; the rest are IR-drop solves.
	impedanceEvery = 4
	// tolPDN is the check tolerance on solutions the iterative engine
	// computes to a 1e-10 (CG) or 1e-9 (GMRES) relative residual.
	tolPDN = 1e-6
)

var zProbes = [][2]int{{16, 16}, {5, 9}, {27, 20}, {12, 28}}

func irSpec(c int) pdn.Spec {
	n := irSizes[c%len(irSizes)]
	hot := irHot[(c/len(irSizes))%len(irHot)]
	load := irLoads[c/(len(irSizes)*len(irHot))]
	return pdn.Spec{
		NX: n, NY: n,
		HotX: int(hot[0] * float64(n)), HotY: int(hot[1] * float64(n)),
		ILoad: load[0], IHot: load[1],
	}
}

func zSpec(c int) (pdn.Spec, pdn.ImpedanceOpts) {
	bumps := 4 - c/len(zProbes)
	p := zProbes[c%len(zProbes)]
	return pdn.Spec{NX: zSide, NY: zSide, BumpNX: bumps, BumpNY: bumps},
		pdn.ImpedanceOpts{FStart: 1e6, FStop: 1e10, Points: zPoints, ProbeX: p[0], ProbeY: p[1]}
}

type irRef struct {
	WorstDrop float64 `json:"worst_drop"`
	AvgDrop   float64 `json:"avg_drop"`
}

type pdnRef struct {
	IR []irRef     `json:"ir"`
	Z  [][]float64 `json:"z"` // |Z| per profile point
}

func genPDNRef() error {
	var ref pdnRef
	for c := 0; c < irCatalog; c++ {
		m, err := pdn.Build(irSpec(c))
		if err != nil {
			return err
		}
		r, err := m.SolveIR()
		if err != nil {
			return err
		}
		ref.IR = append(ref.IR, irRef{r.WorstDrop, r.AvgDrop})
	}
	for c := 0; c < zCatalog; c++ {
		s, o := zSpec(c)
		m, err := pdn.Build(s)
		if err != nil {
			return err
		}
		r, err := m.ImpedanceProfile(runctl.New(context.Background(), runctl.Limits{}), o)
		if err != nil {
			return err
		}
		zs := make([]float64, len(r.Points))
		for i, p := range r.Points {
			zs[i] = p.Z
		}
		ref.Z = append(ref.Z, zs)
	}
	return saveJSON(refPath("pdn.json"), ref)
}

// checkIR verifies an IR-drop result: the bumps must source exactly the
// total load, and the worst and mean drops must match the reference.
func checkIR(m *pdn.Mesh, r *pdn.IRResult, want irRef) error {
	s := m.Spec
	where := fmt.Sprintf("%dx%d mesh hotspot (%d,%d)", s.NX, s.NY, s.HotX, s.HotY)
	bump := 0.0
	for _, b := range m.Bumps() {
		bump += (s.VDD - r.V[b]) / s.RBump
	}
	load := float64(m.N)*s.ILoad + s.IHot
	if err := checkRel(where+" bump current", bump, load, tolPDN); err != nil {
		return err
	}
	if err := checkRel(where+" worst drop", r.WorstDrop, want.WorstDrop, tolPDN); err != nil {
		return err
	}
	return checkRel(where+" mean drop", r.AvgDrop, want.AvgDrop, tolPDN)
}

// pdnWL runs DC IR-drop analyses on large seeded meshes (IC(0)-CG) with one
// op in four an AC impedance profile of a ~1k-node mesh (ILU(0)-GMRES).
type pdnWL struct {
	ref    pdnRef
	size   *deck // deals IR mesh sizes
	site   *deck // deals IR hotspot and load combinations
	z      *deck // deals impedance profiles
	next   int64
	solves []sparse.EngineStats // solver stats of the traced window's IR ops
}

func (w *pdnWL) tail() float64 { return 90 }

func (w *pdnWL) setup(seed int64) error {
	if err := loadJSON(refPath("pdn.json"), &w.ref); err != nil {
		return err
	}
	if len(w.ref.IR) != irCatalog || len(w.ref.Z) != zCatalog {
		return fmt.Errorf("pdn reference has %d IR and %d impedance entries, want %d and %d",
			len(w.ref.IR), len(w.ref.Z), irCatalog, zCatalog)
	}
	w.initInputs(seed)
	// One untimed op of each kind.
	if err := w.runIR(0, nil, -1); err != nil {
		return err
	}
	return w.runZ(0, nil, -1)
}

func (w *pdnWL) initInputs(seed int64) {
	w.size = newDeck(seed, 3, len(irSizes))
	w.site = newDeck(seed, 11, irCatalog/len(irSizes))
	w.z = newDeck(seed, 4, zCatalog)
}

// pick returns whether op i is an impedance profile, and its catalog entry.
// Mesh sizes and hotspot/load sites are dealt from separate decks, so every
// run of nine IR ops covers all nine sizes.
func (w *pdnWL) pick(i int64) (impedance bool, c int) {
	cycle, pos := i/impedanceEvery, i%impedanceEvery
	if pos == impedanceEvery-1 {
		return true, w.z.at(cycle)
	}
	r := cycle*(impedanceEvery-1) + pos
	return false, w.size.at(r) + len(irSizes)*w.site.at(r)
}

func (w *pdnWL) op(i int64, root *active) error {
	z, c := w.pick(i)
	if z {
		return w.runZ(c, root, i)
	}
	return w.runIR(c, root, i)
}

func (w *pdnWL) runIR(c int, root *active, i int64) error {
	var tr *tracer
	if root != nil {
		tr = root.t
	}
	sp := tr.start("pdn.Build", root, i)
	m, err := pdn.Build(irSpec(c))
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("pdn.SolveIR", root, i)
	r, err := m.SolveIR()
	sp.end()
	if err != nil {
		return err
	}
	if tr != nil {
		w.solves = append(w.solves, r.Solver)
	}
	sp = tr.start("oracle", root, i)
	defer sp.end()
	return checkIR(m, r, w.ref.IR[c])
}

func (w *pdnWL) runZ(c int, root *active, i int64) error {
	var tr *tracer
	if root != nil {
		tr = root.t
	}
	s, o := zSpec(c)
	sp := tr.start("pdn.Build/impedance", root, i)
	m, err := pdn.Build(s)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("pdn.ImpedanceProfile", root, i)
	r, err := m.ImpedanceProfile(runctl.New(context.Background(), runctl.Limits{}), o)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("oracle", root, i)
	defer sp.end()
	want := w.ref.Z[c]
	if len(r.Points) != len(want) {
		return fmt.Errorf("impedance profile %d: %d points, want %d", c, len(r.Points), len(want))
	}
	for k, p := range r.Points {
		if err := checkRel(fmt.Sprintf("impedance profile %d |Z(%.3g Hz)|", c, p.F), p.Z, want[k], tolPDN); err != nil {
			return err
		}
	}
	return nil
}

func (w *pdnWL) run(window time.Duration, tr *tracer) runStats {
	return closedLoop(window, tr, &w.next, "pdn.op", w.op)
}

func (w *pdnWL) probe(tr *tracer, m metrics) error {
	sum := tr.summary()
	m["pdn.build_ms"] = sum["pdn.Build"].MeanMS()
	m["pdn.solve_ir_ms"] = sum["pdn.SolveIR"].MeanMS()
	m["pdn.impedance_point_ms"] = sum["pdn.ImpedanceProfile"].MeanMS() / zPoints
	if n := float64(len(w.solves)); n > 0 {
		iters, fallbacks, cg := 0, 0, 0
		for _, r := range w.solves {
			iters += r.Iterations
			fallbacks += r.Fallbacks
			if r.Solver == "cg" {
				cg++
			}
		}
		m["sparse.cg_iters"] = float64(iters) / n
		m["sparse.fallbacks"] = float64(fallbacks)
		m["sparse.cg_share"] = float64(cg) / n
	}
	return nil
}

func (w *pdnWL) close() {}
