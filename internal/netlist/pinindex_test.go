package netlist

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// TestPinIndexOrder: every pin on a net of degree ≥ 2 appears exactly once
// under its cell, in (net, position) order, tagged with its net's shard;
// degree-1 nets own slots but no entries.
func TestPinIndexOrder(t *testing.T) {
	b := NewBuilder("idx", geom.NewRect(0, 0, 100, 100), 8, 1)
	for i := 0; i < 5; i++ {
		b.AddCell("c", StdCell, float64(10*i), 10, 2, 8)
	}
	conns := [][]int{{0, 1}, {2}, {1, 1, 3}, {4, 0, 2, 1}}
	for len(conns) < 40 {
		conns = append(conns, []int{len(conns) % 5, (len(conns) + 2) % 5})
	}
	for _, cells := range conns {
		n := b.AddNet("n", 1)
		for _, c := range cells {
			b.Connect(c, n, 0, 0)
		}
	}
	d := b.MustBuild()
	x := NewPinIndex(d)

	if got := int(x.NetStart[len(d.Nets)]); got != len(d.Pins) {
		t.Fatalf("slot count %d, want %d", got, len(d.Pins))
	}
	seen := make([]int, len(d.Pins))
	for ci := range d.Cells {
		prev := [2]int32{-1, -1}
		for j := x.CellStart[ci]; j < x.CellStart[ci+1]; j++ {
			e := x.Net[j]
			k := x.Slot[j] - x.NetStart[e]
			pi := d.Nets[e].Pins[k]
			if d.Pins[pi].Cell != ci {
				t.Fatalf("cell %d lists pin %d of cell %d", ci, pi, d.Pins[pi].Cell)
			}
			if d.Nets[e].Degree() < 2 {
				t.Fatalf("cell %d lists a pin of degree-1 net %d", ci, e)
			}
			cur := [2]int32{e, k}
			if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] <= prev[1]) {
				t.Fatalf("cell %d entries out of (net, position) order: %v after %v", ci, cur, prev)
			}
			prev = cur
			if lo, hi := parallel.Range(int(x.Shard[j]), len(d.Nets)); int(e) < lo || int(e) >= hi {
				t.Fatalf("net %d tagged with shard %d [%d,%d)", e, x.Shard[j], lo, hi)
			}
			seen[pi]++
		}
	}
	for e := range d.Nets {
		for _, pi := range d.Nets[e].Pins {
			want := 1
			if d.Nets[e].Degree() < 2 {
				want = 0
			}
			if seen[pi] != want {
				t.Errorf("pin %d of net %d listed %d times, want %d", pi, e, seen[pi], want)
			}
		}
	}
}
