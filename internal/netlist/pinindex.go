package netlist

import "repro/internal/parallel"

// PinIndex is a cell-major (CSR) view of the pins on nets of degree ≥ 2.
// Net-parallel kernels write one value per net pin into a slot array laid
// out net by net; a cell-parallel pass then gathers each cell's slots in the
// index's (net index, position in Net.Pins) order, which is the order a
// serial loop over nets would have visited them. The index depends only on
// the connectivity, so it is built once per model and never per evaluation.
type PinIndex struct {
	// NetStart[e] is the first slot of net e; its k-th pin owns slot
	// NetStart[e]+k. len(NetStart) == len(Nets)+1.
	NetStart []int32
	// Cell i's entries are [CellStart[i], CellStart[i+1]) in Slot, Net and
	// Shard, ordered by (net index, position in Net.Pins).
	CellStart []int32
	Slot      []int32 // the entry's slot
	Net       []int32 // the entry's net
	Shard     []uint8 // the parallel shard that owns the entry's net
}

// NewPinIndex builds the index for d's current connectivity. Shards follow
// parallel.Range over len(d.Nets), so they match the net-parallel passes.
func NewPinIndex(d *Design) *PinIndex {
	nNets := len(d.Nets)
	x := &PinIndex{
		NetStart:  make([]int32, nNets+1),
		CellStart: make([]int32, len(d.Cells)+1),
	}
	for e := range d.Nets {
		pins := d.Nets[e].Pins
		x.NetStart[e+1] = x.NetStart[e] + int32(len(pins))
		if len(pins) < 2 {
			continue
		}
		for _, pi := range pins {
			x.CellStart[d.Pins[pi].Cell+1]++
		}
	}
	for i := range d.Cells {
		x.CellStart[i+1] += x.CellStart[i]
	}
	n := x.CellStart[len(d.Cells)]
	x.Slot = make([]int32, n)
	x.Net = make([]int32, n)
	x.Shard = make([]uint8, n)
	next := append([]int32(nil), x.CellStart[:len(d.Cells)]...)
	for s := 0; s < parallel.NumShards; s++ {
		lo, hi := parallel.Range(s, nNets)
		for e := lo; e < hi; e++ {
			pins := d.Nets[e].Pins
			if len(pins) < 2 {
				continue
			}
			for k, pi := range pins {
				ci := d.Pins[pi].Cell
				j := next[ci]
				next[ci]++
				x.Slot[j] = x.NetStart[e] + int32(k)
				x.Net[j] = int32(e)
				x.Shard[j] = uint8(s)
			}
		}
	}
	return x
}
