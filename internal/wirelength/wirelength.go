// Package wirelength implements the weighted-average (WA) wirelength model
// (Hsu, Chang, Balabanov, DAC 2011) used as the smooth HPWL surrogate in the
// placement objective (paper Sec. II-A), together with its analytic gradient
// and the overflow-driven smoothing-parameter (γ) schedule of ePlace.
//
// Evaluation runs in two passes over the internal/parallel shard layer. A
// net-parallel pass computes each net's WA length and writes every pin's
// weighted gradient term into its own slot; the per-shard totals are folded
// in shard order. A cell-parallel pass then gathers each cell's slots
// (netlist.PinIndex) into the cell's gradient, summing them shard by shard
// in net order. Both passes walk a summation tree that depends only on the
// design, so the result is byte-identical for every worker count.
package wirelength

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/parallel"
)

// Model evaluates WA wirelength and its gradient for a fixed design. The
// gamma parameter controls smoothness: WA → HPWL as γ → 0.
type Model struct {
	// Workers caps the goroutines used per evaluation; 0 selects
	// runtime.NumCPU(), 1 runs fully serial. Results are byte-identical
	// for any setting (deterministic shard reduction).
	Workers int

	d     *netlist.Design
	gamma float64
	pins  *netlist.PinIndex

	// pinGrad holds each net pin's weighted gradient term, [gx, gy] per
	// PinIndex slot, written by the net pass and read by the cell gather.
	pinGrad []float64
	// Per-shard exponential scratch sized to the max net degree.
	shard [parallel.NumShards]netScratch

	stats parallel.Timing
}

// netScratch holds one net's pin coordinates and shifted exponentials.
type netScratch struct {
	x, y, ep, en []float64
}

// New creates a WA model with an initial γ proportional to the given
// characteristic length (typically the bin size).
func New(d *netlist.Design, gamma float64) *Model {
	maxDeg := 2
	for i := range d.Nets {
		if deg := d.Nets[i].Degree(); deg > maxDeg {
			maxDeg = deg
		}
	}
	pins := netlist.NewPinIndex(d)
	m := &Model{
		d:       d,
		gamma:   gamma,
		pins:    pins,
		pinGrad: make([]float64, 2*pins.NetStart[len(d.Nets)]),
	}
	for s := range m.shard {
		m.shard[s] = netScratch{
			x:  make([]float64, maxDeg),
			y:  make([]float64, maxDeg),
			ep: make([]float64, maxDeg),
			en: make([]float64, maxDeg),
		}
	}
	return m
}

// Gamma returns the current smoothing parameter.
func (m *Model) Gamma() float64 { return m.gamma }

// SetGamma overrides the smoothing parameter directly.
func (m *Model) SetGamma(g float64) { m.gamma = g }

// Stats returns the accumulated wall/busy time of the parallel passes
// (telemetry: the parallel.wirelength speedup gauge).
func (m *Model) Stats() parallel.Timing { return m.stats }

// UpdateGamma applies the ePlace overflow schedule: γ = base·10^(k·ovf + b)
// with k, b chosen so overflow 1.0 gives 10·base and overflow 0.1 gives
// base/10. Smaller overflow sharpens the model toward HPWL as the placement
// converges.
func (m *Model) UpdateGamma(base, overflow float64) {
	const (
		k = 20.0 / 9.0
		b = -11.0 / 9.0
	)
	m.gamma = base * math.Pow(10, k*overflow+b)
}

// EvaluateWithGrad returns the total weighted WA wirelength and accumulates
// ∂WA/∂(cell center) into grad, which must have length 2·len(cells) and is
// laid out [gx0, gy0, gx1, gy1, ...]. Gradients are accumulated (callers
// zero the slice when they need a fresh gradient); entries for fixed cells
// are accumulated too and it is the caller's choice to ignore them.
//
// Each cell's gradient is grad + S₀ + … + S₁₅, where S_s is the net-order
// sum of the cell's terms from nets in shard s: the fixed tree of a
// per-shard scatter-add merged in shard order, for any worker count.
func (m *Model) EvaluateWithGrad(grad []float64) float64 {
	d := m.d
	if grad != nil && len(grad) != 2*len(d.Cells) {
		panic("wirelength: gradient length mismatch")
	}
	var parts [parallel.NumShards]float64
	m.stats.Add(parallel.For(m.Workers, len(d.Nets), func(shard, lo, hi int) {
		sc := &m.shard[shard]
		var total float64
		for e := lo; e < hi; e++ {
			net := &d.Nets[e]
			n := net.Degree()
			if n < 2 {
				continue
			}
			w := net.Weight
			if w == 0 {
				w = 1
			}
			xs, ys := sc.x[:n], sc.y[:n]
			for k, pi := range net.Pins {
				p := d.PinPos(pi)
				xs[k], ys[k] = p.X, p.Y
			}
			var slots []float64
			if grad != nil {
				s0 := int(m.pins.NetStart[e])
				slots = m.pinGrad[2*s0 : 2*(s0+n)]
			}
			total += w * m.axisWA(xs, sc, slots, 0, w)
			total += w * m.axisWA(ys, sc, slots, 1, w)
		}
		parts[shard] = total
	}))
	if grad != nil {
		m.stats.Add(parallel.For(m.Workers, len(d.Cells), func(_, lo, hi int) {
			m.gather(grad, lo, hi)
		}))
	}
	return parallel.SumShards(&parts)
}

// gather adds the slot terms of cells [lo, hi) into grad, shard by shard.
func (m *Model) gather(grad []float64, lo, hi int) {
	x := m.pins
	for ci := lo; ci < hi; ci++ {
		// +0 maps a −0 entry to +0, as the sixteen shard additions it
		// stands in for would; every other value passes unchanged.
		gx, gy := grad[2*ci]+0, grad[2*ci+1]+0
		for j, end := x.CellStart[ci], x.CellStart[ci+1]; j < end; {
			s := x.Shard[j]
			var sx, sy float64
			for ; j < end && x.Shard[j] == s; j++ {
				k := 2 * x.Slot[j]
				sx += m.pinGrad[k]
				sy += m.pinGrad[k+1]
			}
			gx += sx
			gy += sy
		}
		grad[2*ci], grad[2*ci+1] = gx, gy
	}
}

// Evaluate returns the total WA wirelength without gradients.
func (m *Model) Evaluate() float64 { return m.EvaluateWithGrad(nil) }

// axisWA computes the WA length of one net along one axis from its pin
// coordinates, and writes pin k's weighted gradient term to out[2k+ax]
// (nil skips gradients). The max/min-shifted exponentials keep the computation
// stable for any coordinate magnitude.
func (m *Model) axisWA(coords []float64, sc *netScratch, out []float64, ax int, w float64) float64 {
	lo, hi := coords[0], coords[0]
	for _, c := range coords[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	g := m.gamma
	// Positive side (max approximation), shifted by hi.
	// Negative side (min approximation), shifted by lo.
	expP, expN := sc.ep[:len(coords)], sc.en[:len(coords)]
	var sP, sxP, sN, sxN float64
	for k, c := range coords {
		ep := math.Exp((c - hi) / g)
		en := math.Exp((lo - c) / g)
		expP[k], expN[k] = ep, en
		sP += ep
		sxP += c * ep
		sN += en
		sxN += c * en
	}
	waMax := sxP / sP
	waMin := sxN / sN

	if out != nil {
		for k, c := range coords {
			// d(waMax)/dc_k = ep·((1 + c/g)·sP − sxP/g)/sP²
			// d(waMin)/dc_k = en·((1 − c/g)·sN + sxN/g)/sN²
			dMax := expP[k] * ((1+c/g)*sP - sxP/g) / (sP * sP)
			dMin := expN[k] * ((1-c/g)*sN + sxN/g) / (sN * sN)
			out[2*k+ax] = w * (dMax - dMin)
		}
	}
	return waMax - waMin
}

// GradL1 returns the L1 norm of a gradient vector restricted to movable
// cells; Eq. 10's λ₂ formula uses it.
func GradL1(d *netlist.Design, grad []float64) float64 {
	var s float64
	for i := range d.Cells {
		if !d.Cells[i].Movable() {
			continue
		}
		s += math.Abs(grad[2*i]) + math.Abs(grad[2*i+1])
	}
	return s
}
