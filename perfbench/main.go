// Command perfbench is the repository's performance benchmark: it runs one
// workload of the placer or of its job server, checks every output, and
// prints every metric by name and unit. See README.md for the workloads,
// the metrics and the layer-metric → end-to-end-metric map.
//
//	perfbench --workload flat_suite --seed 0 --seconds 20 --trace 0
//	perfbench --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host, toolchain, commit, seed and kernel-replay state. Progress goes to
// standard error. The exit code is non-zero when any correctness check
// fails.
//
// The same binary serves as the job server's worker process: invoked as
// "perfbench -worker ..." it runs jobs.RunWorker, exactly as placed does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/jobs"
)

func main() {
	// The worker mode dispatches before flag parsing, as in cmd/placed.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(jobs.RunWorker(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int
	work    string // scratch directory for state dirs and checkpoints
	self    string // this binary, re-executed as the job server's worker
}

// workload runs one workload into a report.
type workload func(cfg config, r *report)

func workloads(smoke bool) map[string]workload {
	if smoke {
		return map[string]workload{
			"flat_suite":      smokeFlat.run,
			"multilevel_100k": smokeLarge.run,
			"service_closed":  smokeService.run,
		}
	}
	return map[string]workload{
		"flat_suite":      flatSuite.run,
		"multilevel_100k": multilevel100k.run,
		"service_closed":  serviceClosed.run,
	}
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "flat_suite | multilevel_100k | service_closed")
	seed := fl.Int64("seed", defaultSeed, "input seed: orders the placement workloads' designs and the service's job mix")
	seconds := fl.Int("seconds", 20, "measurement window per run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	smoke := fl.Bool("smoke", false, "run every workload's code path on tiny inputs and check every metric is emitted")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Job state dirs and checkpoints go under the build output directory
	// run.sh creates at the checkout root.
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		work:    dir,
		self:    self,
	}
	if *smoke {
		return runSmoke(cfg)
	}
	w, ok := workloads(false)[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	r := newReport(*name, cfg)
	w(cfg, r)
	r.print(os.Stdout)
	if !r.correct() {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's operations, checks and metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	info              map[string]any
}

func newReport(workload string, cfg config) *report {
	return &report{
		metrics: map[string]metric{},
		info: map[string]any{
			"workload":    workload,
			"seed":        cfg.seed,
			"seconds":     cfg.seconds.Seconds(),
			"trace":       cfg.trace,
			"nproc":       runtime.NumCPU(),
			"workers":     cfg.workers,
			"go":          runtime.Version(),
			"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
			"commit":      commit(),
		},
	}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
	}
}

// check records a correctness failure that is not an operation of its own
// (a mismatch between two outputs).
func (r *report) check(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED %s: %v\n", what, err)
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.attempted > 0 }

func (r *report) print(w io.Writer) {
	// JSON has no NaN or Inf: a metric left undefined by failed operations
	// (a ratio over zero samples) is reported as 0 and fails the run.
	for name, m := range r.metrics {
		if !finite(m.Value) {
			r.check("metric "+name, fmt.Errorf("not finite: %v", m.Value))
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	r.info["failures"] = r.failures
	info, _ := json.Marshal(map[string]any{"perfbench": r.info})
	fmt.Fprintln(w, string(info))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// commit is the VCS revision the Go toolchain stamped into the binary,
// with "+modified" for a dirty tree, or "unknown" when it was built outside
// a git checkout.
func commit() string {
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
