package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// placeWorkload places its designs back to back in this process with
// ModeOurs and the workload's options on top of the core defaults.
type placeWorkload struct {
	families []string
	opt      core.Options
	// setupReps is how many times an untraced run generates its inputs;
	// setup_s is the median.
	setupReps int
	// perPass sizes a run: an untraced run places every design
	// max(1, ⌊seconds/perPass⌋) times, a fixed amount of work per window.
	perPass time.Duration
	// replay bounds the per-kernel replay of a traced run.
	replay replayBudget
	// probe is the small service run that gives a traced placement run its
	// jobs.* metrics.
	probe serviceWorkload
	// baseline, when set, checks the catalog designs' per-design quality
	// against BENCH_baseline.json.
	baseline bool
}

var flatSuite = placeWorkload{
	families:  flatDesigns,
	setupReps: 15,
	perPass:   10 * time.Second,
	replay:    replayBudget{minReps: 3, maxReps: 200, budget: 150 * time.Millisecond},
	probe:     probeService,
	baseline:  true,
}

var multilevel100k = placeWorkload{
	families: []string{largeDesign},
	opt: core.Options{
		Levels:        largeLevels,
		MaxWLIters:    largeWLIters,
		MaxRouteIters: largeRouteIter,
	},
	setupReps: 11,
	perPass:   20 * time.Second,
	replay:    replayBudget{minReps: 1, maxReps: 50, budget: 150 * time.Millisecond},
	probe:     probeService,
	baseline:  true,
}

func (w placeWorkload) options(workers int) core.Options {
	o := w.opt
	o.Mode = core.ModeOurs
	o.Tech = core.AllTechniques()
	o.Workers = workers
	return o
}

// order is the seed's placement order of the families; the default seed
// keeps the bench gate's order.
func (w placeWorkload) order(seed int64) []string {
	out := append([]string(nil), w.families...)
	if seed != defaultSeed {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// designRun is one placement measured from outside the placer.
type designRun struct {
	name    string
	wall    time.Duration // core.Place, including the final evaluation
	pt, rt  time.Duration // pt = wall − RT
	hpwl    float64       // recomputed from the final positions
	res     *core.Result
	final   []float64
	drvs    float64
	drwl    float64
	drvias  float64
	overflw float64
}

// placeOne places d and runs the per-operation correctness checks: the
// placement is legal, its metrics are finite, and the routability loop's
// bookkeeping is consistent.
func placeOne(d *netlist.Design, opt core.Options) (designRun, error) {
	t0 := time.Now()
	res, err := core.Place(d, opt)
	wall := time.Since(t0)
	if err != nil {
		return designRun{}, err
	}
	dr := designRun{
		name:    d.Name,
		wall:    wall,
		rt:      res.RouteTime,
		pt:      wall - res.RouteTime,
		hpwl:    d.HPWL(),
		res:     res,
		final:   d.SnapshotPositions(),
		drvs:    float64(res.Metrics.DRVs),
		drwl:    res.Metrics.DRWL,
		drvias:  float64(res.Metrics.DRVias),
		overflw: res.FinalOverflow,
	}
	if err := legalize.CheckLegal(d); err != nil {
		return dr, fmt.Errorf("illegal placement: %w", err)
	}
	if !finite(dr.hpwl, dr.drwl, dr.overflw, res.HPWLGlobal, res.HPWLLegalized) {
		return dr, fmt.Errorf("non-finite metrics: hpwl %v drwl %v overflow %v", dr.hpwl, dr.drwl, dr.overflw)
	}
	if res.RouteIters != len(res.CongestionHistory) {
		return dr, fmt.Errorf("RouteIters %d != len(CongestionHistory) %d", res.RouteIters, len(res.CongestionHistory))
	}
	return dr, nil
}

// pass is one back-to-back placement of every design.
type pass struct {
	runs                []designRun
	wall, place, route  float64
	hpwl, drwl, drvias  float64
	drvs, finalOverflow float64
}

func (p *pass) add(dr designRun) {
	p.runs = append(p.runs, dr)
	p.wall += dr.wall.Seconds()
	p.place += dr.pt.Seconds()
	p.route += dr.rt.Seconds()
	p.hpwl += dr.hpwl
	p.drwl += dr.drwl
	p.drvias += dr.drvias
	p.drvs += dr.drvs
	p.finalOverflow = math.Max(p.finalOverflow, dr.overflw)
}

func (w placeWorkload) generate(cfg config) ([]*netlist.Design, error) {
	var ds []*netlist.Design
	for _, fam := range w.order(cfg.seed) {
		d, err := generate(fam)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func (w placeWorkload) run(cfg config, r *report) {
	reps := w.setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var ds []*netlist.Design
	for i := 0; i < reps; i++ {
		// Every repetition starts from a collected heap, without the
		// previous repetition's designs.
		ds = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		ds, err = w.generate(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		r.op("generate inputs", err)
		if err != nil {
			return
		}
	}
	names := make([]string, len(ds))
	init := make([][]float64, len(ds))
	for i, d := range ds {
		names[i] = d.Name
		init[i] = d.SnapshotPositions()
	}
	r.info["designs"] = names
	r.info["options"] = fmt.Sprintf("mode=ours levels=%d max_wl_iters=%d max_route_iters=%d workers=%d",
		w.opt.Levels, w.opt.MaxWLIters, w.opt.MaxRouteIters, cfg.workers)
	opt := w.options(cfg.workers)
	if cfg.trace {
		w.traced(cfg, r, ds, init, opt)
		return
	}

	var passes []pass
	for n := max(1, int(cfg.seconds/w.perPass)); len(passes) < n; {
		var p pass
		for i, d := range ds {
			d.RestorePositions(init[i])
			dr, err := placeOne(d, opt)
			r.op("place "+d.Name, err)
			if err == nil {
				p.add(dr)
			}
		}
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d/%d: wall %.2fs place %.2fs route %.2fs\n",
			len(passes), n, p.wall, p.place, p.route)
	}
	rss := peakRSSMB(false)

	// Every pass places identical inputs, so its quality must repeat bit
	// for bit.
	first := passes[0]
	for k, p := range passes[1:] {
		if p.hpwl != first.hpwl || p.drvs != first.drvs || p.drwl != first.drwl || p.finalOverflow != first.finalOverflow {
			r.check(fmt.Sprintf("pass %d repeats pass 1", k+2),
				fmt.Errorf("hpwl %v vs %v, drvs %v vs %v", p.hpwl, first.hpwl, p.drvs, first.drvs))
		}
	}
	if w.baseline {
		checkBaseline(r, first.runs)
	}

	var walls, places, routes, jobWalls []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		places = append(places, p.place)
		routes = append(routes, p.route)
		for _, dr := range p.runs {
			jobWalls = append(jobWalls, dr.wall.Seconds())
		}
	}
	perDesign := map[string]map[string]float64{}
	for _, dr := range first.runs {
		perDesign[dr.name] = map[string]float64{
			"hpwl": dr.hpwl, "drwl": dr.drwl, "drvias": dr.drvias, "drvs": dr.drvs,
			"final_overflow": dr.overflw, "route_iters": float64(dr.res.RouteIters),
			"wl_iters": float64(dr.res.WLIters),
		}
	}
	r.info["per_design"] = perDesign
	r.info["passes"] = len(passes)
	tailV, tailP := tail(jobWalls)
	r.info["job_tail_percentile"] = tailP
	r.info["job_samples"] = len(jobWalls)

	r.set("setup_s", median(setups), "s")
	r.set("wall_s", median(walls), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("place_s", median(places), "s")
	r.set("route_s", median(routes), "s")
	r.set("hpwl", first.hpwl, "dbu")
	r.set("drwl", first.drwl, "dbu")
	r.set("drvias", first.drvias, "count")
	r.set("drvs", first.drvs, "count")
	r.set("final_overflow", first.finalOverflow, "ratio")
	r.set("job_p50_s", median(jobWalls), "s")
	r.set("job_tail_s", tailV, "s")
	r.set("jobs_per_min", 60*float64(len(jobWalls))/sum(walls), "1/min")
}

// checkBaseline compares the catalog designs' quality with the bench gate's
// per-design gauges in BENCH_baseline.json, within the gate's own 2%
// relative tolerance; exact agreement is recorded in the run's info.
func checkBaseline(r *report, runs []designRun) {
	f, err := os.Open("BENCH_baseline.json")
	if err != nil {
		r.info["baseline"] = "BENCH_baseline.json not found; quality not compared"
		return
	}
	defer f.Close()
	b, err := telemetry.ReadBaseline(f)
	if err != nil {
		r.check("read BENCH_baseline.json", err)
		return
	}
	gauges := map[string]float64{}
	for _, m := range b.Metrics {
		gauges[m.Name] = m.Value
	}
	exact := true
	for _, dr := range runs {
		for key, got := range map[string]float64{"hpwl": dr.hpwl, "drwl": dr.drwl, "drvs": dr.drvs, "drvias": dr.drvias} {
			want, ok := gauges[fmt.Sprintf("bench.%s.%s", dr.name, key)]
			if !ok {
				continue
			}
			if got != want {
				exact = false
			}
			if math.Abs(got-want) > 0.02*math.Abs(want) {
				r.check("baseline "+dr.name+"."+key, fmt.Errorf("got %v, BENCH_baseline.json has %v", got, want))
			}
		}
	}
	r.info["baseline_exact"] = exact
}

type spanRec struct {
	name   string
	parent int64
	dur    time.Duration
}

// selfTimes decodes the span events of a JSONL trace stream and returns each
// stage's self time: its spans' durations minus the part covered by child
// stage spans. Spans named "<layer>.<part>" (the router's route.decompose,
// eval.score, legalize.abacus, ...) are a layer's own internals and stay in
// their parent's self time.
func selfTimes(stream []byte) map[string]time.Duration {
	spans := map[int64]*spanRec{}
	for _, line := range bytes.Split(stream, []byte{'\n'}) {
		if !bytes.Contains(line, []byte(`"ev":"span_`)) {
			continue
		}
		var ev struct {
			Ev     string `json:"ev"`
			Span   int64  `json:"span"`
			Parent int64  `json:"parent"`
			Name   string `json:"name"`
			DurUS  int64  `json:"dur_us"`
		}
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		switch ev.Ev {
		case "span_start":
			spans[ev.Span] = &spanRec{name: ev.Name, parent: ev.Parent}
		case "span_end":
			if sp := spans[ev.Span]; sp != nil {
				sp.dur = time.Duration(ev.DurUS) * time.Microsecond
			}
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range spans {
		if isInternal(sp.name) {
			continue
		}
		out[sp.name] += sp.dur
		if p := spans[sp.parent]; p != nil && !isInternal(p.name) {
			out[p.name] -= sp.dur
		}
	}
	return out
}

func isInternal(name string) bool { return strings.Contains(name, ".") }

// layerTotals sums the per-layer measurements of the traced placements of
// a workload: stage self times, registry counters, trace sizes, and the
// traced and untraced walls of the same placements.
type layerTotals struct {
	untraced, traced time.Duration
	self             map[string]time.Duration
	counters         map[string]float64
	traceBytes       []float64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{self: map[string]time.Duration{}, counters: map[string]float64{}}
}

// place places d with a telemetry observer and adds what it saw. The
// observer writes its JSONL stream to memory; the span events are decoded
// after the placement, so the traced wall holds only the program's own
// tracing cost.
func (lt *layerTotals) place(d *netlist.Design, opt core.Options) (designRun, error) {
	var stream bytes.Buffer
	obs := telemetry.NewObserver(&stream)
	opt.Observer = obs
	t, err := placeOne(d, opt)
	if err == nil {
		err = obs.Flush()
	}
	if err != nil {
		return t, err
	}
	lt.traced += t.wall
	for name, dur := range selfTimes(stream.Bytes()) {
		lt.self[name] += dur
	}
	for _, m := range obs.Metrics.Snapshot() {
		if m.Kind == "counter" {
			lt.counters[m.Name] += m.Value
		}
	}
	lt.traceBytes = append(lt.traceBytes, float64(stream.Len()))
	return t, nil
}

// report sets the stage, counter and tracing-overhead metrics.
func (lt *layerTotals) report(r *report) {
	setStages(r, lt.self)
	setCounters(r, lt.counters)
	r.set("trace.overhead_ratio", lt.traced.Seconds()/lt.untraced.Seconds(), "ratio")
	r.info["untraced_wall_s"], r.info["traced_wall_s"] = lt.untraced.Seconds(), lt.traced.Seconds()
}

// traced runs every design untraced and traced, checks that the two final
// placements agree bit for bit, and reports the per-layer metrics: stage
// self times, work counters, trace and checkpoint sizes, the kernel replay
// on the untraced run's final positions, and the service probe.
func (w placeWorkload) traced(cfg config, r *report, ds []*netlist.Design, init [][]float64, opt core.Options) {
	lt := newLayerTotals()
	var ckptBytes, ckptParse []float64
	// Both sides persist the checkpoint a job would leave behind after its
	// last boundary (the checkpoint.* metrics read the traced side's), so
	// that they differ only in the observer.
	withCheckpoint := func(path string) core.Options {
		o := opt
		o.CheckpointPath = path
		o.BoundaryHook = func(point string) core.BoundaryAction {
			if point == "detailed" {
				return core.BoundaryCheckpoint
			}
			return core.BoundaryContinue
		}
		return o
	}
	for i, d := range ds {
		ckpt := filepath.Join(cfg.work, d.Name+".ckpt")
		// Odd designs run traced first, so that on several designs the
		// warm-up of the process does not favour one side of the ratio.
		var u designRun
		var err error
		untracedRun := func() {
			d.RestorePositions(init[i])
			u, err = placeOne(d, withCheckpoint(filepath.Join(cfg.work, d.Name+".untraced.ckpt")))
			r.op("place "+d.Name, err)
		}
		if i%2 == 0 {
			if untracedRun(); err != nil {
				continue
			}
		}
		d.RestorePositions(init[i])
		t, err := lt.place(d, withCheckpoint(ckpt))
		r.op("traced place "+d.Name, err)
		if err != nil {
			continue
		}
		if i%2 == 1 {
			if untracedRun(); err != nil {
				continue
			}
		}
		lt.untraced += u.wall
		r.check("traced placement of "+d.Name+" equals untraced", samePositions(u.final, t.final))
		if st, err := os.Stat(ckpt); err == nil {
			ckptBytes = append(ckptBytes, float64(st.Size()))
			ckptParse = append(ckptParse, timeInspect(r, ckpt))
		} else {
			r.check("checkpoint of "+d.Name, err)
		}
		d.RestorePositions(u.final)
	}

	lt.report(r)
	r.set("trace.bytes", mean(lt.traceBytes), "B")
	r.set("checkpoint.bytes", mean(ckptBytes), "B")
	r.set("checkpoint.parse_ms", mean(ckptParse), "ms")

	t0 := time.Now()
	replayKernels(cfg, r, ds, w.opt.Levels, w.replay)
	t1 := time.Now()
	w.probe.probe(cfg, r)
	fmt.Fprintf(os.Stderr, "perfbench: kernel replay %.1fs, service probe %.1fs\n",
		t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
}

func samePositions(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d coordinates", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("coordinate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// timeInspect returns the median time of core.InspectCheckpoint on path.
func timeInspect(r *report, path string) float64 {
	var ts []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		_, err := core.InspectCheckpoint(path)
		ts = append(ts, ms(time.Since(t0)))
		if err != nil {
			r.check("inspect checkpoint "+filepath.Base(path), err)
			return 0
		}
	}
	return median(ts)
}

// setStages reports the stage self times the per-layer map names. Coarse
// levels of the multilevel flow carry an "L<k>/" prefix; they are summed
// into stage.coarse_s.
func setStages(r *report, self map[string]time.Duration) {
	var coarse time.Duration
	for name, d := range self {
		if len(name) > 2 && name[0] == 'L' && name[1] >= '1' && name[1] <= '9' {
			coarse += d
		}
	}
	for _, s := range []struct{ metric, span string }{
		{"stage.phase1_s", "phase1_wirelength"},
		{"stage.nesterov_s", "nesterov"},
		{"stage.route_s", "route"},
		{"stage.congestion_update_s", "congestion_update"},
		{"stage.legalize_s", "legalize"},
		{"stage.detailed_s", "detailed"},
		{"stage.eval_s", "eval"},
	} {
		r.set(s.metric, self[s.span].Seconds(), "s")
	}
	r.set("stage.coarse_s", coarse.Seconds(), "s")
	all := map[string]float64{}
	for name, d := range self {
		all[name] = d.Seconds()
	}
	r.info["stage_self_s"] = all
}

// setCounters reports the deterministic work counters of the traced run.
func setCounters(r *report, c map[string]float64) {
	for _, name := range []string{"objective.evals", "poisson.solves", "route.calls", "route.segments", "congestion.updates"} {
		r.set(name, c[name], "count")
	}
	hits, dirty := c["route.decompose_cache_hits"], c["route.dirty_nets"]
	ratio := 0.0
	if hits+dirty > 0 {
		ratio = hits / (hits + dirty)
	}
	r.set("route.cache_hit_ratio", ratio, "ratio")
	r.set("route.cache_lookups", hits+dirty, "count")
}
