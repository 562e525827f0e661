package core

import (
	"context"
	"fmt"

	"rlcint/internal/batch"
	"rlcint/internal/diag"
	"rlcint/internal/pade"
	"rlcint/internal/repeater"
	"rlcint/internal/runctl"
	"rlcint/internal/tech"
	"rlcint/internal/tline"
)

// SweepOptions configure the batched sweep engine (SweepBatchCtx and
// SweepNodesCtx). The zero value is the safe default: cold starts, one
// point per tile, GOMAXPROCS workers — maximally parallel and bit-identical
// to the serial SweepCtx reference at any worker count.
type SweepOptions struct {
	// Workers bounds the worker pool (≤0 → GOMAXPROCS). Never affects
	// results.
	Workers int
	// TileSize is the number of consecutive inductance points one worker
	// owns (≤0 → 1 when cold, 8 when warm). It is fixed independently of
	// Workers, so results are bit-identical across worker counts; it is
	// part of the result contract in warm mode (it decides which points are
	// continuation-seeded).
	TileSize int
	// Warm enables Newton warm-start continuation: each tile's first point
	// seeds the stationarity solve from the row's l=0 reference optimum,
	// and every later point of the tile from the previous point's converged
	// optimum (seeding the threshold-crossing delay solves the same way).
	// Any doubt falls back to the exact cold ladder. Warm results agree
	// with cold ones to ≤1e-12 relative on the optimized per-unit delay
	// (the objective); the optimizer arguments h, k and the derived ratios
	// agree only to the stationarity tolerance (~1e-8 relative) and are not
	// bit-identical. Leave false for exact reproduction of the serial
	// reference path.
	Warm bool
	// Limits bound the whole sweep; MaxIters counts batch work items (one
	// per node reference plus one per grid point).
	Limits runctl.Limits
	// Injector injects optimizer faults into every point's solve for
	// testing (nil in production). Never affects results when nil.
	Injector *diag.Injector
}

func (o SweepOptions) tileSize() int {
	if o.TileSize > 0 {
		return o.TileSize
	}
	if o.Warm {
		return 8
	}
	return 1
}

// NodeSweep pairs a technology node with its Section 3 sweep row.
type NodeSweep struct {
	Node   tech.Node
	Points []SweepPoint
}

// nodeRefs are the per-node reference quantities shared by every inductance
// point of that node's row: the RC optimum and the l=0 optimum of the same
// two-pole machinery.
type nodeRefs struct {
	base    Problem
	rc      repeater.RCOptimum
	zeroOpt Optimum
}

func nodeRefsOf(ctx context.Context, node tech.Node, f float64, ws *Workspace) (nodeRefs, error) {
	base := Problem{
		Device: repeaterOf(node),
		Line:   tline.Line{R: node.R, C: node.C},
		F:      f,
	}
	rc, err := OptimizeRC(base)
	if err != nil {
		return nodeRefs{}, err
	}
	zero := base
	zero.Line.L = 0
	zeroOpt, err := OptimizeWS(ctx, zero, ws)
	if err != nil {
		if runctl.IsStop(err) {
			return nodeRefs{}, err
		}
		return nodeRefs{}, fmt.Errorf("core: Sweep l=0 reference: %w", err)
	}
	return nodeRefs{base: base, rc: rc, zeroOpt: zeroOpt}, nil
}

// sweepScratch is the per-worker state of the point phase: the reusable
// optimizer workspace plus the warm-start seed chained from the previous
// point of the current tile.
type sweepScratch struct {
	ws   *Workspace
	seed Seed
	has  bool
}

// SweepNodesCtx runs the full Section 3 study for several technology nodes
// through the batched engine: first the per-node references (RC and l=0
// optima) evaluate concurrently, then the nodes×ls point grid runs tiled
// across the pool, row-bounded so continuation never chains across nodes.
// Results are deterministic for fixed SweepOptions: worker count changes
// wall-clock time only. With Warm unset every optimum is bit-identical to
// the serial SweepCtx reference.
//
// On an error or a run-control stop, the completed prefix of rows (the last
// possibly partial) is returned alongside the typed error.
func SweepNodesCtx(ctx context.Context, opts SweepOptions, nodes []tech.Node, ls []float64, f float64) ([]NodeSweep, error) {
	if err := validateGrid("core.SweepNodes", ls); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, diag.Domainf("core.SweepNodes", "no technology nodes")
	}
	ctl := runctl.New(ctx, opts.Limits)
	refs, err := batch.Run(ctl, len(nodes),
		batch.Options{Workers: opts.Workers, TileSize: 1},
		NewWorkspace,
		func(ws *Workspace, i int, _ bool) (nodeRefs, error) {
			return nodeRefsOf(ctl.Context(), nodes[i], f, ws)
		})
	if err != nil {
		return assembleRows(nodes, nil, len(ls)), err
	}

	flat, err := batch.Run(ctl, len(nodes)*len(ls),
		batch.Options{Workers: opts.Workers, TileSize: opts.tileSize(), RowLen: len(ls)},
		func() *sweepScratch { return &sweepScratch{ws: NewWorkspace()} },
		func(s *sweepScratch, i int, warm bool) (SweepPoint, error) {
			row, col := i/len(ls), i%len(ls)
			r := refs[row]
			p := r.base
			p.Line.L = ls[col]
			p.Injector = opts.Injector
			var seed Seed
			if opts.Warm {
				if warm && s.has {
					seed = s.seed
				} else {
					// Tile-leading point: continuation starts from the
					// row's l=0 reference optimum, which is exact for the
					// first grid point and a good basin guess elsewhere.
					seed = r.zeroOpt.AsSeed()
				}
			}
			opt, err := OptimizeSeeded(ctl.Context(), p, seed, s.ws)
			if err != nil {
				s.has = false
				if runctl.IsStop(err) {
					return SweepPoint{}, err
				}
				return SweepPoint{}, fmt.Errorf("core: Sweep l=%g: %w", ls[col], err)
			}
			s.seed, s.has = opt.AsSeed(), true
			return SweepPoint{
				L:          ls[col],
				Opt:        opt,
				LCrit:      pade.LCrit(p.Device.Stage(p.Line, opt.H, opt.K)),
				HRatio:     opt.H / r.rc.H,
				KRatio:     opt.K / r.rc.K,
				DelayRatio: opt.PerUnit / r.zeroOpt.PerUnit,
				Penalty:    p.PerUnitDelay(r.rc.H, r.rc.K) / opt.PerUnit,
			}, nil
		})
	return assembleRows(nodes, flat, len(ls)), err
}

// assembleRows folds the flat completed prefix back into per-node rows; the
// last row may be partial when the run was cut short.
func assembleRows(nodes []tech.Node, flat []SweepPoint, rowLen int) []NodeSweep {
	out := make([]NodeSweep, 0, len(nodes))
	for row := 0; row < len(nodes); row++ {
		if rowLen == 0 {
			out = append(out, NodeSweep{Node: nodes[row]})
			continue
		}
		lo := row * rowLen
		if lo >= len(flat) {
			break
		}
		hi := lo + rowLen
		if hi > len(flat) {
			hi = len(flat)
		}
		out = append(out, NodeSweep{Node: nodes[row], Points: flat[lo:hi]})
	}
	return out
}

// SweepBatchCtx is the batched counterpart of SweepCtx for one node: same
// study, same results (bit-identical when opts.Warm is unset), evaluated by
// the parallel engine.
func SweepBatchCtx(ctx context.Context, opts SweepOptions, node tech.Node, ls []float64, f float64) ([]SweepPoint, error) {
	rows, err := SweepNodesCtx(ctx, opts, []tech.Node{node}, ls, f)
	if len(rows) >= 1 {
		return rows[0].Points, err
	}
	return nil, err
}
