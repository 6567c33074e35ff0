package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/designio"
	"repro/internal/eval"
	"repro/internal/netlist"
	"repro/internal/poisson"
	"repro/internal/route"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

// replayBudget bounds how often one kernel is called per design: at least
// minReps calls, then more until budget has elapsed, at most maxReps.
type replayBudget struct {
	minReps, maxReps int
	budget           time.Duration
}

// timed is one kernel measurement: the median per-call time and the heap
// bytes allocated per call.
type timed struct {
	ms      float64
	allocKB float64
	reps    int
}

// measure calls fn under b. The first call is a warm-up and is dropped,
// unless it alone used up the budget (the heavy kernels of a large design):
// then it is the one sample.
func (b replayBudget) measure(fn func()) timed {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	if first := time.Since(t0); first >= b.budget {
		runtime.ReadMemStats(&after)
		return timed{ms: ms(first), allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024, reps: 1}
	}
	runtime.ReadMemStats(&before)
	var ts []float64
	start := time.Now()
	for len(ts) < b.minReps || (time.Since(start) < b.budget && len(ts) < b.maxReps) {
		t0 := time.Now()
		fn()
		ts = append(ts, ms(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	return timed{
		ms:      median(ts),
		allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(ts)),
		reps:    len(ts),
	}
}

// cold measures a call that must run on fresh state each time: setup builds
// the state untimed, fn is the timed call.
func (b replayBudget) cold(setup func(), fn func()) timed {
	var ts []float64
	start := time.Now()
	for len(ts) < b.minReps || (time.Since(start) < b.budget && len(ts) < b.maxReps) {
		setup()
		t0 := time.Now()
		fn()
		ts = append(ts, ms(time.Since(t0)))
	}
	return timed{ms: median(ts), reps: len(ts)}
}

// replayKernels times repeated calls to each layer's public entry points on
// the designs' current positions (the final placement of the workload's own
// untraced run), at the run's worker count and, for the .w1 variants, at
// Workers=1. Each kernel metric is the sum over the designs of the
// per-call median.
func replayKernels(cfg config, r *report, ds []*netlist.Design, levels int, b replayBudget) {
	tot := map[string]float64{}
	reps := map[string]int{}
	add := func(name string, t timed, alloc bool) {
		tot["kernel."+name+"_ms"] += t.ms
		reps[name] += t.reps
		if alloc {
			tot["kernel."+name+".alloc_kb"] += t.allocKB
		}
	}
	var states []string
	for _, d := range ds {
		hint := core.DefaultGridHint(len(d.Cells))
		for _, workers := range []int{cfg.workers, 1} {
			sfx := ""
			if workers == 1 {
				sfx = ".w1"
			}
			full := workers == cfg.workers

			dm := density.New(d, hint)
			dm.Workers = workers
			var rho []float64
			dm.RhoHook = func(x []float64) { rho = append(rho[:0], x...) }
			gamma := dm.BinW() * 0.5
			wl := wirelength.New(d, gamma)
			wl.Workers = workers
			grad := make([]float64, 2*len(d.Cells))
			add("wirelength"+sfx, b.measure(func() {
				clear(grad)
				wl.EvaluateWithGrad(grad)
			}), full)
			add("density"+sfx, b.measure(dm.Compute), full)
			dm.RhoHook = nil
			solver, err := poisson.NewSolver(dm.NX, dm.NY)
			r.op("poisson solver for "+d.Name, err)
			if err != nil {
				continue
			}
			solver.Workers = workers
			pg := solver.NewGrid()
			add("poisson"+sfx, b.measure(func() { solver.Solve(rho, pg) }), false)

			g := route.NewGrid(d, hint)
			var rtr *route.Router
			add("route_cold"+sfx, b.cold(func() {
				rtr = route.NewRouter(d, g)
				rtr.Workers = workers
			}, func() { rtr.Route() }), false)
			if !full {
				continue
			}
			var res *route.Result
			add("route_warm", b.measure(func() { res = rtr.Route() }), true)
			cm := congestion.New(d, g)
			cm.Workers = workers
			add("congestion_update", b.measure(func() { cm.Update(res) }), false)
			add("congestion_grad", b.measure(func() {
				clear(grad)
				cm.Gradients(grad)
			}), true)
			add("eval", b.measure(func() { eval.EvaluateTraced(d, hint, nil, workers) }), true)
			states = append(states, fmt.Sprintf("%s: %d cells, grid %dx%d, gamma %.4g, density fillers at construction positions",
				d.Name, len(d.Cells), dm.NX, dm.NY, gamma))
		}

		// Flat workloads replay the clustering at the 100k leg's depth.
		if levels < 2 {
			levels = largeLevels
		}
		maxW := 1 << (2 * (levels - 1)) // core's default 4^(Levels−1) cap
		var maps []*cluster.Map
		var err error
		add("cluster", b.measure(func() { maps, err = cluster.Hierarchy(d, levels, maxW) }), false)
		r.op("cluster "+d.Name, err)
		if err != nil {
			continue
		}
		// Interpolate overwrites the fine design's positions: replay it
		// last and put the placement back.
		snap := d.SnapshotPositions()
		add("interpolate", b.measure(maps[0].Interpolate), false)
		d.RestorePositions(snap)

		if p, ok := inputParams(d.Name); ok {
			add("generate", b.measure(func() { synth.FromParams(p) }), false)
		}
		var payload bytes.Buffer
		if err := designio.Write(&payload, d); err != nil {
			r.op("write payload for "+d.Name, err)
			continue
		}
		_, err = designio.Read(bytes.NewReader(payload.Bytes()))
		r.op("read payload of "+d.Name, err)
		add("designio_read", b.measure(func() { designio.Read(bytes.NewReader(payload.Bytes())) }), false)
	}
	for name, v := range tot {
		if name == "kernel.designio_read_ms" {
			r.set("designio.read_ms", v/float64(len(ds)), "ms")
			continue
		}
		unit := "ms"
		if strings.HasSuffix(name, ".alloc_kb") {
			unit = "KiB"
		}
		r.set(name, v, unit)
	}
	r.info["replay"] = map[string]any{
		"positions": "final placement of this run's untraced placement of each design",
		"workers":   cfg.workers,
		"designs":   states,
		"budget":    fmt.Sprintf("min %d, max %d calls, %v per kernel and design, after one warm-up call", b.minReps, b.maxReps, b.budget),
		"calls":     reps,
	}
}
