package core

import (
	"math"

	"repro/internal/eval"
	"repro/internal/route"
)

// lambda1Growth is the per-step multiplicative growth of the density weight
// (ePlace's μ), applied during both placement phases.
const lambda1Growth = 1.05

// lambda1RouteGrowth is the slower density-weight growth used inside the
// routability loop, applied only while overflow exceeds the target.
const lambda1RouteGrowth = 1.02

// phase1MinIters is the iteration floor before phase 1 may stop on the
// density-overflow target.
const phase1MinIters = 20

// inflationStats summarizes the current inflation ratios for snapshots.
func inflationStats(ratios []float64) (mean, max float64) {
	if len(ratios) == 0 {
		return 0, 0
	}
	var sum float64
	for _, r := range ratios {
		sum += r
		if r > max {
			max = r
		}
	}
	return sum / float64(len(ratios)), max
}

// overflowScore sums G-cell overflow with the same superlinear exponent the
// evaluation oracle uses (eval.OverflowExp), so the routability loop
// optimizes exactly what the scorecard measures.
func overflowScore(r *route.Result) float64 {
	g := r.Grid
	var s float64
	for i := 0; i < g.NX*g.NY; i++ {
		if ov := r.DemandTotal(i) - g.CapTotal(i); ov > 0 {
			s += math.Pow(ov, eval.OverflowExp)
		}
	}
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
