package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/designio"
	"repro/internal/jobs"
	"repro/internal/legalize"
	"repro/internal/netlist"
)

// serviceWorkload is a closed loop of nproc clients against an in-process
// jobs.Manager + Server whose placements run in supervised worker processes
// (this binary re-executed with -worker). Each client submits its next job
// only once its last one reached a terminal state. A round submits a
// seed-ordered list of jobs drawn from a pool of inline payloads; rounds
// repeat until the measurement window is used.
type serviceWorkload struct {
	families  []string
	pool      int // distinct payloads
	perRound  int // jobs per round
	setupReps int
	// layers makes a traced run report every per-layer metric; without it
	// (the one-job probe of the placement workloads) only the jobs.* ones.
	layers bool
	// roundEvery sizes a run: an untraced run does
	// max(1, ⌊seconds/roundEvery⌋) rounds, a fixed amount of work per
	// window; a traced run does one.
	roundEvery time.Duration
	replay     replayBudget
}

var serviceClosed = serviceWorkload{
	families:   serviceFamilies,
	pool:       servicePool,
	perRound:   2 * servicePool,
	setupReps:  15,
	layers:     true,
	roundEvery: 3 * time.Second,
	replay:     replayBudget{minReps: 3, maxReps: 100, budget: 60 * time.Millisecond},
}

// probeService gives the traced placement runs their jobs.* metrics: one
// tiny_hot job through the same server path.
var probeService = serviceWorkload{
	families:   []string{"tiny_hot_small"},
	pool:       1,
	perRound:   1,
	setupReps:  1,
	roundEvery: time.Second,
}

// pollEvery is the clients' job-status polling interval.
const pollEvery = 5 * time.Millisecond

// serviceEnv is one running server over a fresh state directory.
type serviceEnv struct {
	dir    string
	m      *jobs.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when Serve has returned
	closed bool
}

// startService opens a manager with Capacity = workers and the default
// Quantum and PersistEvery, serves it on a loopback port, and returns once
// /readyz answers 200.
func startService(dir string, cfg config) (*serviceEnv, error) {
	m, err := jobs.Open(jobs.Config{
		Dir:           dir,
		Capacity:      cfg.workers,
		WorkerCommand: []string{cfg.self, "-worker"},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	e := &serviceEnv{
		dir:    dir,
		m:      m,
		srv:    &http.Server{Handler: jobs.NewServer(m).Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute},
		served: make(chan struct{}),
	}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := e.client.Get(e.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("server not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP server and the manager; the manager waits for every
// worker process it started.
func (e *serviceEnv) close() {
	if e == nil || e.closed {
		return
	}
	e.closed = true
	e.srv.Close()
	<-e.served
	e.m.Close()
	e.client.CloseIdleConnections()
}

// jobRun is one job as its client saw it.
type jobRun struct {
	order     int // position in the round's submission order
	payload   int
	id        string
	submitMs  float64
	shed      int
	latency   time.Duration // submit → terminal
	queueWait time.Duration // submit → first seen running
	running   time.Duration // time seen in state running
	segments  int
	state     jobs.State
	summary   *jobs.Summary
	placement [32]byte // sha256 of the downloaded placement
	hpwl      float64  // recomputed from the downloaded placement
	err       error
}

// runJob submits one inline payload and follows it to a terminal state.
func (e *serviceEnv) runJob(p payloadSpec, idx, workers int) jobRun {
	jr := jobRun{payload: idx}
	body, _ := json.Marshal(jobs.Spec{Payload: p.payload, Workers: workers})
	var t0 time.Time
	for {
		t0 = time.Now()
		resp, err := e.client.Post(e.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			jr.err = err
			return jr
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		jr.submitMs = ms(time.Since(t0))
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Shed: back off as told and retry; the shed is counted.
			jr.shed++
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			jr.err = fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
			return jr
		}
		var out struct{ ID string }
		if err := json.Unmarshal(data, &out); err != nil {
			jr.err = err
			return jr
		}
		jr.id = out.ID
		break
	}

	last := t0
	lastState := jobs.StateQueued
	for {
		var v jobs.JobView
		if err := e.getJSON("/jobs/"+jr.id, &v); err != nil {
			jr.err = err
			return jr
		}
		now := time.Now()
		if lastState == jobs.StateRunning {
			jr.running += now.Sub(last)
		}
		if v.State == jobs.StateRunning && jr.queueWait == 0 {
			jr.queueWait = now.Sub(t0)
		}
		last, lastState = now, v.State
		if v.State.Terminal() {
			jr.latency = now.Sub(t0)
			jr.state, jr.segments, jr.summary = v.State, v.Segments, v.Summary
			break
		}
		time.Sleep(pollEvery)
	}
	if jr.state != jobs.StateDone {
		jr.err = fmt.Errorf("job %s ended %s", jr.id, jr.state)
		return jr
	}
	resp, err := e.client.Get(e.base + "/jobs/" + jr.id + "/placement")
	if err != nil {
		jr.err = err
		return jr
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("placement: %s", resp.Status)
	}
	if err != nil {
		jr.err = err
		return jr
	}
	jr.placement = sha256.Sum256(data)
	d, err := designio.Read(bytes.NewReader(data))
	if err == nil {
		jr.hpwl = d.HPWL()
		err = legalize.CheckLegal(d)
	}
	jr.err = err
	return jr
}

func (e *serviceEnv) getJSON(path string, v any) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// round runs one closed-loop round of the seed's job order.
func (e *serviceEnv) round(pool []payloadSpec, order []int, workers int) ([]jobRun, time.Duration) {
	next := make(chan int, len(order))
	for i := range order {
		next <- i
	}
	close(next)
	var mu sync.Mutex
	var out []jobRun
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jr := e.runJob(pool[order[i]], order[i], workers)
				jr.order = i
				mu.Lock()
				out = append(out, jr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// reference is the in-process placement of one pool payload.
type reference struct {
	run       designRun
	placement [32]byte
	design    *netlist.Design
}

// references places every pool payload in this process, the way a worker
// would (same parse, same options), untraced.
func references(cfg config, r *report, pool []payloadSpec) []reference {
	refs := make([]reference, len(pool))
	for k, p := range pool {
		d, err := designio.Read(strings.NewReader(p.payload))
		if err == nil {
			refs[k].run, err = placeOne(d, refOptions(cfg))
		}
		var buf bytes.Buffer
		if err == nil {
			err = designio.Write(&buf, d)
		}
		r.op("reference place "+p.name, err)
		refs[k].placement = sha256.Sum256(buf.Bytes())
		refs[k].design = d
	}
	return refs
}

// refOptions are the core options a default job spec maps onto.
func refOptions(cfg config) core.Options {
	return core.Options{Mode: core.ModeOurs, Tech: core.AllTechniques(), Workers: cfg.workers}
}

// checkJobs compares every finished job with the reference placement of its
// payload, byte for byte, and records what jobs.Summary reports next to
// the values measured from outside.
func checkJobs(r *report, runs []jobRun, refs []reference) {
	var zeroHPWL, mismatchedHPWL int
	var ptRatios []float64
	for _, jr := range runs {
		if jr.err != nil {
			continue
		}
		ref := refs[jr.payload]
		if jr.placement != ref.placement {
			r.check("job "+jr.id+" placement", fmt.Errorf("differs from the in-process reference of %s", ref.run.name))
		}
		if s := jr.summary; s != nil {
			if float64(s.DRVs) != ref.run.drvs || s.DRWL != ref.run.drwl || float64(s.DRVias) != ref.run.drvias {
				r.check("job "+jr.id+" summary", fmt.Errorf("drvs %d drwl %v, reference %v %v", s.DRVs, s.DRWL, ref.run.drvs, ref.run.drwl))
			}
			if s.HPWLFinal == 0 {
				zeroHPWL++
			} else if s.HPWLFinal != jr.hpwl {
				mismatchedHPWL++
			}
			if jr.running > 0 {
				ptRatios = append(ptRatios, s.PlaceSeconds/jr.running.Seconds())
			}
		} else {
			r.check("job "+jr.id+" summary", fmt.Errorf("missing"))
		}
	}
	r.info["summary_vs_outside"] = map[string]any{
		"jobs":                     len(runs),
		"summary_hpwl_zero":        zeroHPWL,
		"summary_hpwl_mismatch":    mismatchedHPWL,
		"summary_pt_over_seen_run": median(ptRatios),
	}
}

func (w serviceWorkload) run(cfg config, r *report) {
	reps := w.setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var env *serviceEnv
	var pool []payloadSpec
	defer func() { env.close() }()
	for i := 0; i < reps; i++ {
		env.close()
		runtime.GC()
		t0 := time.Now()
		var err error
		pool, err = servicePayloads(w.families, w.pool)
		if err == nil {
			env, err = startService(filepath.Join(cfg.work, fmt.Sprintf("state%d", i)), cfg)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.op("service setup", err)
		if err != nil {
			return
		}
	}
	names := make([]string, len(pool))
	for k, p := range pool {
		names[k] = p.name
	}
	r.info["pool"] = names

	var runs []jobRun
	var walls, places, routes, hpwls []float64
	var quality pass // DRV scores summed over the first round's job summaries
	rounds := max(1, int(cfg.seconds/w.roundEvery))
	if cfg.trace {
		rounds = 1
	}
	for round, order := range jobOrders(cfg.seed, rounds, len(pool), w.perRound) {
		rr, wall := env.round(pool, order, cfg.workers)
		// Sum in pool order, not completion order, so that every round's
		// quality sums repeat bit for bit.
		sort.Slice(rr, func(i, j int) bool {
			if rr[i].payload != rr[j].payload {
				return rr[i].payload < rr[j].payload
			}
			return rr[i].order < rr[j].order
		})
		var place, rt, hpwl float64
		for _, jr := range rr {
			r.op("job "+pool[jr.payload].name, jr.err)
			place += jr.running.Seconds()
			hpwl += jr.hpwl
			if s := jr.summary; s != nil {
				rt += s.RouteSeconds
				if round == 0 {
					quality.drwl += s.DRWL
					quality.drvias += float64(s.DRVias)
					quality.drvs += float64(s.DRVs)
				}
			}
		}
		runs = append(runs, rr...)
		walls = append(walls, wall.Seconds())
		places = append(places, place)
		routes = append(routes, rt)
		hpwls = append(hpwls, hpwl)
		fmt.Fprintf(os.Stderr, "perfbench: round %d/%d: %d jobs in %.2fs\n", round+1, rounds, len(rr), wall.Seconds())
	}
	rss := peakRSSMB(true)
	var restarts, shed float64
	for _, m := range env.m.Stats() {
		switch m.Name {
		case "supervise.restarts":
			restarts = m.Value
		case "supervise.shed_requests":
			shed = m.Value
		}
	}
	env.close()
	for _, h := range hpwls[1:] {
		if h != hpwls[0] {
			r.check("rounds repeat", fmt.Errorf("round hpwl %v vs %v", h, hpwls[0]))
		}
	}

	refs := references(cfg, r, pool)
	checkJobs(r, runs, refs)
	refWalls := map[string]float64{}
	for k, ref := range refs {
		refWalls[pool[k].name] = ref.run.wall.Seconds()
	}
	r.info["reference_wall_s"] = refWalls

	var lat, submits, waits, runTimes, segs, overhead []float64
	var clientShed int
	for _, jr := range runs {
		clientShed += jr.shed
		if jr.err != nil {
			continue
		}
		lat = append(lat, jr.latency.Seconds())
		submits = append(submits, jr.submitMs)
		waits = append(waits, jr.queueWait.Seconds())
		runTimes = append(runTimes, jr.running.Seconds())
		segs = append(segs, float64(jr.segments))
		if ref := refs[jr.payload].run; ref.wall > 0 {
			overhead = append(overhead, jr.running.Seconds()/ref.wall.Seconds())
		}
	}
	tailV, tailP := tail(lat)
	r.info["job_tail_percentile"] = tailP
	r.info["job_samples"] = len(lat)
	r.info["rounds"] = len(walls)

	if cfg.trace {
		r.set("jobs.submit_ms", median(submits), "ms")
		r.set("jobs.queue_wait_s", median(waits), "s")
		r.set("jobs.run_s", median(runTimes), "s")
		r.set("jobs.segments", mean(segs), "count")
		r.set("jobs.overhead_ratio", median(overhead), "ratio")
		r.set("jobs.restarts", restarts, "count")
		r.set("jobs.shed", math.Max(shed, float64(clientShed)), "count")
		if w.layers {
			w.tracedLayers(cfg, r, env.dir, runs, pool, refs)
		}
		return
	}

	for _, ref := range refs {
		quality.finalOverflow = math.Max(quality.finalOverflow, ref.run.overflw)
	}
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", median(walls), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("place_s", median(places), "s")
	r.set("route_s", median(routes), "s")
	r.set("hpwl", hpwls[0], "dbu")
	r.set("drwl", quality.drwl, "dbu")
	r.set("drvias", quality.drvias, "count")
	r.set("drvs", quality.drvs, "count")
	r.set("final_overflow", quality.finalOverflow, "ratio")
	r.set("job_p50_s", median(lat), "s")
	r.set("job_tail_s", tailV, "s")
	r.set("jobs_per_min", 60*float64(len(lat))/sum(walls), "1/min")
}

// probe runs the probe workload and keeps only its jobs.* metrics.
func (w serviceWorkload) probe(cfg config, r *report) {
	sub := newReport("probe", cfg)
	w.run(cfg, sub)
	r.attempted += sub.attempted
	r.failed += sub.failed
	r.failures = append(r.failures, sub.failures...)
	for name, m := range sub.metrics {
		if strings.HasPrefix(name, "jobs.") {
			r.metrics[name] = m
		}
	}
	r.info["service_probe"] = sub.info["pool"]
}

// tracedLayers reports the service's per-layer metrics that come from the
// state directory and from in-process runs of the pool: checkpoint and
// trace sizes, checkpoint parsing, and — from untraced and traced
// reference runs — stage self times, work counters and the tracing
// overhead, plus the kernel replay on the reference placements.
func (w serviceWorkload) tracedLayers(cfg config, r *report, dir string, runs []jobRun, pool []payloadSpec, refs []reference) {
	var ckptBytes, traceBytes, parse []float64
	for _, jr := range runs {
		if jr.err != nil {
			continue
		}
		ck := filepath.Join(dir, jr.id, "run.ckpt")
		if st, err := os.Stat(ck); err == nil {
			ckptBytes = append(ckptBytes, float64(st.Size()))
			parse = append(parse, timeInspect(r, ck))
		}
		if st, err := os.Stat(filepath.Join(dir, jr.id, "trace.jsonl")); err == nil {
			traceBytes = append(traceBytes, float64(st.Size()))
		}
	}
	r.set("checkpoint.bytes", mean(ckptBytes), "B")
	r.set("checkpoint.parse_ms", mean(parse), "ms")
	r.set("trace.bytes", mean(traceBytes), "B")

	lt := newLayerTotals()
	var ds []*netlist.Design
	for k, p := range pool {
		ref := refs[k]
		if ref.run.wall == 0 {
			continue
		}
		d, err := designio.Read(strings.NewReader(p.payload))
		var t designRun
		if err == nil {
			t, err = lt.place(d, refOptions(cfg))
		}
		r.op("traced reference "+p.name, err)
		if err != nil {
			continue
		}
		lt.untraced += ref.run.wall
		r.check("traced reference of "+p.name+" equals untraced", samePositions(ref.run.final, t.final))
		ds = append(ds, ref.design)
	}
	lt.report(r)
	replayKernels(cfg, r, ds, 0, w.replay)
}
