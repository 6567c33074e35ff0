package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/designio"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// defaultSeed keeps the bench gate's design order. Every seed places the
// catalog designs themselves, so placement quality is the same on every
// seed and comparable with BENCH_baseline.json; the seed only orders the
// inputs (see README.md, "Seeds").
const defaultSeed = 0

// flatDesigns are the bench gate's four Table I designs (bench_test.go's
// benchDesigns).
var flatDesigns = []string{"fft_b", "des_perf_1", "pci_bridge32_a", "matrix_mult_b"}

// largeDesign and its options are the bench gate's bounded multilevel leg.
const (
	largeDesign    = "superblue1_big"
	largeLevels    = 3
	largeWLIters   = 120
	largeRouteIter = 3
)

// serviceFamilies is the service job mix. The "_small" suffix caps a
// family at serviceCells movable cells, so that per-job costs (spawn,
// checkpoints, payload parses) dominate: either family then places in
// about 0.3 s on its 32×32 grid.
var serviceFamilies = []string{"tiny_hot_small", "fft_1_small"}

// serviceCells is the size cap of a "_small" service variant.
const serviceCells = 500

// servicePool is how many distinct payloads a service run draws its jobs
// from; each needs one in-process reference placement for the byte-identity
// check, so the pool stays small.
const servicePool = 6

// variantName is the name of the k-th service variant of a family. synth
// derives its RNG stream from the name, so a new name is a new instance of
// the same family (same Params, different netlist).
func variantName(family string, k int) string {
	return fmt.Sprintf("%s_s%d", family, k)
}

// inputParams returns the synth Params of a benchmark input name: a catalog
// family, optionally with the "_small" size cap, optionally with a
// "_s<k>" variant suffix.
func inputParams(name string) (synth.Params, bool) {
	base := name
	if i := strings.LastIndex(base, "_s"); i > 0 {
		if _, err := strconv.Atoi(base[i+2:]); err == nil {
			base = base[:i]
		}
	}
	small := strings.HasSuffix(base, "_small")
	p, ok := synth.Catalog()[strings.TrimSuffix(base, "_small")]
	if !ok {
		return p, false
	}
	if small {
		p.NumCells = min(p.NumCells, serviceCells)
	}
	p.Name = name
	return p, true
}

// generate builds the input design of that name.
func generate(name string) (*netlist.Design, error) {
	p, ok := inputParams(name)
	if !ok {
		return nil, fmt.Errorf("unknown input design %q", name)
	}
	return synth.FromParams(p)
}

// payloadSpec is one distinct service input: a design variant serialized as
// an inline designio payload.
type payloadSpec struct {
	name    string
	payload string
}

// servicePayloads generates the service workload's payload pool: variant
// k+1 of families[k%len(families)] for k < n.
func servicePayloads(families []string, n int) ([]payloadSpec, error) {
	out := make([]payloadSpec, 0, n)
	for k := 0; k < n; k++ {
		d, err := generate(variantName(families[k%len(families)], k+1))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := designio.Write(&buf, d); err != nil {
			return nil, err
		}
		out = append(out, payloadSpec{name: d.Name, payload: buf.String()})
	}
	return out, nil
}

// jobOrders is the seed's job mix: for each round, perRound pool indices
// (every payload perRound/pool times) in a seed-shuffled order, so every
// round submits the same work in its own order and no two seeds share a
// round's order.
func jobOrders(seed int64, rounds, pool, perRound int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, rounds)
	for k := range out {
		o := make([]int, perRound)
		for i := range o {
			o[i] = i % pool
		}
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		out[k] = o
	}
	return out
}
