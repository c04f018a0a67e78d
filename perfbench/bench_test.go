package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// printed results must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shortRun runs one workload for a few operations: three fresh jobs, or
// two passes over the first three inputs of the pool.
func shortRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	w, _ := findWorkload(name)
	o := options{workload: name, seed: defaultSeed, trace: trace, traceOut: t.TempDir(), minOps: 3, pool: min(3, w.pool)}
	var out bytes.Buffer
	r, err := execute(w, o, &out)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", name, trace, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
		t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", name, trace, r.Correct, r.Failed, r.Attempted, out.String())
	}
	return r
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: printed %d metrics %v, BENCHMARK.json lists %d", workload, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s printed in %s, BENCHMARK.json says %s", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that its outputs pass and its metric names and units match
// BENCHMARK.json.
func TestShortRuns(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %s, perfbench has %s", i, w.Name, workloads[i].name)
		}
		t.Run(w.Name, func(t *testing.T) {
			plain := shortRun(t, w.Name, false)
			checkMetrics(t, w.Name, plain.Metrics, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if v := plain.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
			traced := shortRun(t, w.Name, true)
			checkMetrics(t, w.Name, traced.Metrics, b.PerLayer)
			if w.Name == "dense-clique" && traced.Metrics["protocol.batch_calls"].Value == 0 {
				t.Error("dense-clique: traced run stepped no batches; the wrappers hid sim.BatchAgent")
			}
		})
	}
}

// TestWrongReferenceFails checks that a digest differing from the
// reference counts as a failed operation.
func TestWrongReferenceFails(t *testing.T) {
	w, _ := findWorkload("dense-clique")
	s, _, err := w.open(defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := measure(w, s, options{minOps: 1, pool: 1}, nil, []string{"0000000000000000"})
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("attempted %d, failed %d; want every operation failed", p.attempted, p.failed)
	}
}

// TestCalibrateAllocFree checks that the calibration kernel allocates
// nothing, so that garbage-collector load from the engines cannot slow
// it and hide itself in the scaled engine times.
func TestCalibrateAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, func() { calibrate() }); allocs != 0 {
		t.Fatalf("calibrate allocates %v times per run, want 0", allocs)
	}
}
