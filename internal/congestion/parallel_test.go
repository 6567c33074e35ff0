package congestion

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/parallel"
	"repro/internal/route"
)

// referenceGradients is the serial assembly the three-pass Gradients
// replaced: one loop over nets (two-pin terms, then each pin's multi-pin
// force), then the Eq. 10 statistics over cells. It returns the virtual
// cells in creation order.
func referenceGradients(m *Model, grad []float64) (Stats, []geom.Point) {
	d := m.d
	var st Stats
	var virt []geom.Point
	for e := range d.Nets {
		net := &d.Nets[e]
		deg := net.Degree()
		if deg < 2 {
			continue
		}
		if deg == 2 {
			p1, p2 := d.PinPos(net.Pins[0]), d.PinPos(net.Pins[1])
			if v, ok := m.VirtualCell(p1, p2); ok {
				st.VirtualCells++
				virt = append(virt, v)
				ex, ey := m.FieldAt(v.X, v.Y)
				fv := geom.Point{X: m.stdArea * ex, Y: m.stdArea * ey}
				if L := p1.Dist(p2); L != 0 {
					n := geom.Point{X: -(p2.Y - p1.Y) / L, Y: (p2.X - p1.X) / L}
					if n.Dot(fv) < 0 {
						n = n.Scale(-1)
					}
					fperp := n.Scale(fv.Dot(n))
					for idx, p := range []geom.Point{p1, p2} {
						ci := d.Pins[net.Pins[idx]].Cell
						if !d.Cells[ci].Movable() {
							continue
						}
						div := p.Dist(v)
						factor := m.MaxLeverage
						if div > 0 {
							factor = math.Min(L/(2*div), m.MaxLeverage)
						}
						grad[2*ci] -= factor * fperp.X
						grad[2*ci+1] -= factor * fperp.Y
					}
				}
			}
		}
		for _, pi := range net.Pins {
			ci := d.Pins[pi].Cell
			c := &d.Cells[ci]
			if !c.Movable() || float64(c.NumPins) <= m.avgPins {
				continue
			}
			if m.congestionAtPoint(c.X, c.Y) <= m.UtilThreshold {
				continue
			}
			ex, ey := m.FieldAt(c.X, c.Y)
			a := c.Area()
			grad[2*ci] -= a * ex
			grad[2*ci+1] -= a * ey
			st.MultiPinHits++
		}
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if m.congestionAtPoint(c.X, c.Y) > 0 {
			st.CongestedCell++
		}
		st.GradL1 += math.Abs(grad[2*ci]) + math.Abs(grad[2*ci+1])
	}
	return st, virt
}

// referencePenalty is Penalty over the reference's virtual cells, summed in
// the reference's creation order.
func referencePenalty(m *Model, virt []geom.Point) float64 {
	var sum float64
	for ci := range m.d.Cells {
		c := &m.d.Cells[ci]
		if !c.Movable() || float64(c.NumPins) <= m.avgPins {
			continue
		}
		sum += c.Area() * m.PotentialAt(c.X, c.Y)
	}
	for _, v := range virt {
		sum += m.stdArea * m.PotentialAt(v.X, v.Y)
	}
	return sum / 2
}

// netMovingDesign is a congested die with many two-pin and multi-pin nets
// and the gather's corner cases: a two-pin net with both pins on one wide
// cell, two-pin nets to fixed macros, a zero-length two-pin net, and hub
// cells whose pins sit on both kinds of net.
func netMovingDesign(t testing.TB) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	b := netlist.NewBuilder("netmoving", geom.NewRect(0, 0, 256, 256), 8, 1)
	const cells = 300
	for i := 0; i < cells; i++ {
		x, y := rng.Float64()*256, rng.Float64()*256
		if i%2 == 0 { // half the cells crowd the centre
			x, y = 96+rng.Float64()*64, 96+rng.Float64()*64
		}
		b.AddCell("c", netlist.StdCell, x, y, 2, 8)
	}
	macro := b.AddCell("macro", netlist.Macro, 30, 128, 16, 16)
	wide := b.AddCell("wide", netlist.StdCell, 128, 128, 40, 8)
	for e := 0; e < 500; e++ {
		n := b.AddNet("n", 1)
		deg := 2
		if e%3 == 0 {
			deg = 3 + rng.Intn(4)
		}
		for k := 0; k < deg; k++ {
			b.Connect(rng.Intn(cells), n, 0, 0)
		}
	}
	// Hubs: far more pins than average, on two-pin and multi-pin nets.
	for h := 0; h < 6; h++ {
		hub := 2 * h
		for k := 0; k < 12; k++ {
			n := b.AddNet("hub", 1)
			b.Connect(hub, n, 0, 0)
			b.Connect(rng.Intn(cells), n, 0, 0)
			if k%3 == 0 {
				b.Connect(rng.Intn(cells), n, 0, 0)
			}
		}
	}
	self := b.AddNet("self", 1) // both pins on one cell, spanning G-cells
	b.Connect(wide, self, -18, 0)
	b.Connect(wide, self, 18, 3)
	for k := 0; k < 10; k++ {
		n := b.AddNet("wideload", 1)
		b.Connect(wide, n, 0, 0)
		b.Connect(rng.Intn(cells), n, 0, 0)
	}
	for k := 0; k < 8; k++ {
		n := b.AddNet("fixed", 1)
		b.Connect(macro, n, 8, 0)
		b.Connect(2*rng.Intn(cells/2), n, 0, 0)
	}
	zero := b.AddNet("zero", 1)
	b.Connect(4, zero, 0, 0)
	b.Connect(4, zero, 0, 0)
	single := b.AddNet("single", 1)
	b.Connect(6, single, 0, 0)
	b.SetRouteCapScale(0.1)
	return b.MustBuild()
}

// TestGradientsMatchSerialReference: the three-pass Gradients reproduces
// the serial assembly bit for bit — gradient (accumulated onto existing
// entries), Stats, and Penalty, whose sum order is the virtual-cell order —
// for every worker count and both virtual-cell placements.
func TestGradientsMatchSerialReference(t *testing.T) {
	d := netMovingDesign(t)
	g := route.NewGrid(d, 32)
	res := route.NewRouter(d, g).Route()
	init := make([]float64, 2*len(d.Cells))
	rng := rand.New(rand.NewSource(3))
	for i := range init {
		if i%3 == 0 {
			init[i] = rng.NormFloat64()
		}
	}
	for _, midpoint := range []bool{false, true} {
		ref := New(d, g)
		ref.VirtualAtMidpoint = midpoint
		ref.Update(res)
		refGrad := append([]float64(nil), init...)
		refSt, refVirt := referenceGradients(ref, refGrad)
		if refSt.VirtualCells == 0 || refSt.MultiPinHits == 0 {
			t.Fatalf("midpoint=%v: design exercises too little: %+v", midpoint, refSt)
		}
		refPen := referencePenalty(ref, refVirt)
		for _, w := range []int{1, 2, 3, parallel.NumShards, 0} {
			m := New(d, g)
			m.VirtualAtMidpoint = midpoint
			m.Workers = w
			m.Update(res)
			grad := append([]float64(nil), init...)
			st := m.Gradients(grad)
			if st != refSt {
				t.Errorf("midpoint=%v workers=%d: stats %+v, reference %+v", midpoint, w, st, refSt)
			}
			for i := range grad {
				if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
					t.Fatalf("midpoint=%v workers=%d: grad[%d] = %v, reference %v (bitwise)",
						midpoint, w, i, grad[i], refGrad[i])
				}
			}
			if p := m.Penalty(); math.Float64bits(p) != math.Float64bits(refPen) {
				t.Errorf("midpoint=%v workers=%d: penalty %v, reference %v (bitwise)", midpoint, w, p, refPen)
			}
		}
	}
}

// TestGradientStatsAccumulate: gradient passes record their cost for the
// parallel.congestion speedup gauge.
func TestGradientStatsAccumulate(t *testing.T) {
	d, _, _, m := hotspotSetup(t)
	m.Gradients(make([]float64, 2*len(d.Cells)))
	if m.Stats().Wall <= 0 || m.Stats().Busy <= 0 {
		t.Errorf("stats not accumulated: %+v", m.Stats())
	}
}
