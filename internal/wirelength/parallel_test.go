package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
)

// meshDesign builds a design with many nets of mixed degree so the shard
// decomposition is exercised with uneven per-net work.
func meshDesign(t testing.TB) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	b := netlist.NewBuilder("mesh", geom.NewRect(0, 0, 1000, 1000), 8, 1)
	const cells = 400
	for i := 0; i < cells; i++ {
		b.AddCell("c", netlist.StdCell, rng.Float64()*1000, rng.Float64()*1000, 2, 8)
	}
	for e := 0; e < 700; e++ {
		n := b.AddNet("n", 1)
		deg := 2 + rng.Intn(7)
		for k := 0; k < deg; k++ {
			b.Connect(rng.Intn(cells), n, 0, 0)
		}
	}
	return b.MustBuild()
}

// TestEvaluateBitwiseIdenticalAcrossWorkers: the shard reduction tree
// depends only on the net count, so WA total and gradient must be
// bit-for-bit identical for every worker count.
func TestEvaluateBitwiseIdenticalAcrossWorkers(t *testing.T) {
	d := meshDesign(t)
	run := func(workers int) (float64, []float64) {
		m := New(d, 4.0)
		m.Workers = workers
		grad := make([]float64, 2*len(d.Cells))
		wa := m.EvaluateWithGrad(grad)
		return wa, grad
	}
	refWA, refGrad := run(1)
	for _, w := range []int{2, 3, parallel.NumShards, 0} {
		wa, grad := run(w)
		if math.Float64bits(wa) != math.Float64bits(refWA) {
			t.Errorf("workers=%d: WA %v != serial %v (bitwise)", w, wa, refWA)
		}
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
				t.Fatalf("workers=%d: grad[%d] differs bitwise from serial", w, i)
			}
		}
	}
}

// TestEvaluateStatsAccumulate: evaluations record the cost of the parallel
// section for the telemetry speedup gauges.
func TestEvaluateStatsAccumulate(t *testing.T) {
	d := meshDesign(t)
	m := New(d, 4.0)
	m.Evaluate()
	m.Evaluate()
	if m.Stats().Wall <= 0 || m.Stats().Busy <= 0 {
		t.Errorf("stats not accumulated: %+v", m.Stats())
	}
}

// referenceEvaluate is the shard-buffer evaluator the two-pass gather
// replaced: every shard scatter-adds its nets' gradient terms into a
// private full-length buffer (recomputing the negative-side exponential),
// and the buffers are added into grad in ascending shard order. The gather
// must reproduce it bit for bit.
func referenceEvaluate(d *netlist.Design, gamma float64, grad []float64) float64 {
	var parts [parallel.NumShards]float64
	shardGrad := make([][]float64, parallel.NumShards)
	for s := range shardGrad {
		var sg []float64
		if grad != nil {
			sg = make([]float64, len(grad))
		}
		shardGrad[s] = sg
		lo, hi := parallel.Range(s, len(d.Nets))
		var total float64
		for e := lo; e < hi; e++ {
			net := &d.Nets[e]
			if net.Degree() < 2 {
				continue
			}
			w := net.Weight
			if w == 0 {
				w = 1
			}
			for ax := 0; ax < 2; ax++ {
				total += w * referenceNetWA(d, net, sg, w, ax, gamma)
			}
		}
		parts[s] = total
	}
	if grad != nil {
		for _, sg := range shardGrad {
			for i, v := range sg {
				grad[i] += v
			}
		}
	}
	return parallel.SumShards(&parts)
}

func referenceNetWA(d *netlist.Design, net *netlist.Net, grad []float64, w float64, ax int, g float64) float64 {
	coords := make([]float64, len(net.Pins))
	for k, pi := range net.Pins {
		p := d.PinPos(pi)
		coords[k] = p.X
		if ax == 1 {
			coords[k] = p.Y
		}
	}
	lo, hi := coords[0], coords[0]
	for _, c := range coords[1:] {
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	expP := make([]float64, len(coords))
	var sP, sxP, sN, sxN float64
	for k, c := range coords {
		ep := math.Exp((c - hi) / g)
		en := math.Exp((lo - c) / g)
		expP[k] = ep
		sP += ep
		sxP += c * ep
		sN += en
		sxN += c * en
	}
	if grad != nil {
		for k, pi := range net.Pins {
			c := coords[k]
			en := math.Exp((lo - c) / g)
			dMax := expP[k] * ((1+c/g)*sP - sxP/g) / (sP * sP)
			dMin := en * ((1-c/g)*sN + sxN/g) / (sN * sN)
			grad[2*d.Pins[pi].Cell+ax] += w * (dMax - dMin)
		}
	}
	return sxP/sP - sxN/sN
}

// edgeDesign adds the gather's corner cases to a mesh: a degree-1 net, a
// zero-weight net, a cell with two pins on one net, pins on fixed cells,
// pin offsets, and a cell on no net at all.
func edgeDesign(t testing.TB) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	b := netlist.NewBuilder("edges", geom.NewRect(0, 0, 500, 500), 8, 1)
	const cells = 120
	for i := 0; i < cells; i++ {
		kind := netlist.StdCell
		if i%17 == 0 {
			kind = netlist.Macro
		}
		b.AddCell("c", kind, rng.Float64()*500, rng.Float64()*500, 4, 8)
	}
	b.AddCell("isolated", netlist.StdCell, 250, 250, 2, 8)
	for e := 0; e < 300; e++ {
		weight := 1.0
		switch e % 11 {
		case 3:
			weight = 0
		case 5:
			weight = 2.5
		}
		n := b.AddNet("n", weight)
		first := rng.Intn(cells)
		b.Connect(first, n, 1, 2)
		for k := rng.Intn(6); k > 0; k-- {
			b.Connect(rng.Intn(cells), n, rng.Float64()*4-2, rng.Float64()*8-4)
		}
		if e%7 == 0 {
			b.Connect(first, n, -1, -1) // a second pin of one cell on one net
		}
	}
	return b.MustBuild()
}

// TestEvaluateMatchesShardBufferReference: value and gradient of the
// net-pass/cell-gather evaluation equal the shard-buffer reference bit for
// bit, for every worker count, with and without a gradient, and when the
// gradient accumulates onto existing entries (including −0).
func TestEvaluateMatchesShardBufferReference(t *testing.T) {
	for name, d := range map[string]*netlist.Design{"mesh": meshDesign(t), "edges": edgeDesign(t)} {
		init := make([]float64, 2*len(d.Cells))
		rng := rand.New(rand.NewSource(5))
		for i := range init {
			switch i % 5 {
			case 0:
				init[i] = math.Copysign(0, -1)
			case 1:
				init[i] = rng.NormFloat64()
			}
		}
		refGrad := append([]float64(nil), init...)
		refWA := referenceEvaluate(d, 4.0, refGrad)
		refNoGrad := referenceEvaluate(d, 4.0, nil)
		for _, w := range []int{1, 2, 3, parallel.NumShards, 0} {
			m := New(d, 4.0)
			m.Workers = w
			grad := append([]float64(nil), init...)
			wa := m.EvaluateWithGrad(grad)
			if math.Float64bits(wa) != math.Float64bits(refWA) {
				t.Errorf("%s workers=%d: WA %v != reference %v (bitwise)", name, w, wa, refWA)
			}
			for i := range grad {
				if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
					t.Fatalf("%s workers=%d: grad[%d] = %v, reference %v (bitwise)", name, w, i, grad[i], refGrad[i])
				}
			}
			if v := m.Evaluate(); math.Float64bits(v) != math.Float64bits(refNoGrad) {
				t.Errorf("%s workers=%d: nil-grad WA %v != reference %v", name, w, v, refNoGrad)
			}
		}
	}
}
