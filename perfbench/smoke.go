package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// The smoke mode runs every workload's code path, untraced and traced, on
// tiny inputs and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json declares.
var (
	smokeFlat = placeWorkload{
		families:  []string{"tiny_hot", "tiny_open"},
		setupReps: 2,
		perPass:   time.Second,
		replay:    replayBudget{minReps: 2, maxReps: 5, budget: 10 * time.Millisecond},
		probe:     probeService,
	}
	smokeLarge = placeWorkload{
		families:  []string{"tiny_open"},
		opt:       core.Options{Levels: 2, MaxWLIters: 60, MaxRouteIters: 2},
		setupReps: 2,
		perPass:   time.Second,
		replay:    replayBudget{minReps: 2, maxReps: 5, budget: 10 * time.Millisecond},
		probe:     probeService,
	}
	smokeService = serviceWorkload{
		families:   []string{"tiny_hot_small", "tiny_open_small"},
		pool:       2,
		perRound:   3,
		setupReps:  2,
		layers:     true,
		roundEvery: time.Second,
		replay:     replayBudget{minReps: 2, maxReps: 5, budget: 10 * time.Millisecond},
	}
)

// declared reads the metric names and units BENCHMARK.json lists.
func declared() (endToEnd, perLayer map[string]string, err error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, err
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer, nil
}

func runSmoke(cfg config) int {
	e2e, layers, err := declared()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: smoke: %v\n", err)
		return 1
	}
	ws := workloads(true)
	names := make([]string, 0, len(ws))
	for n := range ws {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.trace = trace
			c.seconds = time.Second
			want := e2e
			if trace {
				want = layers
			}
			r := newReport(name, c)
			ws[name](c, r)
			var problems []string
			if !r.correct() {
				problems = append(problems, fmt.Sprintf("incorrect: %v", r.failures))
			}
			for m, unit := range want {
				got, found := r.metrics[m]
				switch {
				case !found:
					problems = append(problems, "missing "+m)
				case got.Unit != unit:
					problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m, got.Unit, unit))
				case !finite(got.Value):
					problems = append(problems, fmt.Sprintf("%s is %v", m, got.Value))
				}
			}
			for m := range r.metrics {
				if _, found := want[m]; !found {
					problems = append(problems, "undeclared "+m)
				}
			}
			status := "ok"
			if len(problems) > 0 {
				ok = false
				status = fmt.Sprintf("FAIL %v", problems)
			}
			fmt.Printf("smoke %-16s trace=%v: %d ops, %d metrics: %s\n", name, trace, r.attempted, len(r.metrics), status)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
