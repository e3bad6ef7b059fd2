package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the code:
// the same workloads, the end-to-end metrics endToEnd reports, and the
// per-layer catalogue in order.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	rr := &runResult{ops: []opTiming{{ms: 1, reps: 1, ok: true}}, recs: []opRecord{{ratio: 2}}, wall: time.Second}
	got := endToEnd(&env{window: 1}, rr, 0.5)
	if len(got) != len(b.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, endToEnd reports %d", len(b.EndToEnd), len(got))
	}
	for _, m := range b.EndToEnd {
		if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): reported as %+v", m.Name, m.Unit, v)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %s %s %s", i, m, lm.name, lm.unit, lm.better)
		}
	}
}

// TestSelfTimeAccounting checks that a build's self time is its span
// minus the stage spans under solve.stages, and that spans beside the
// stages (dag.decomp) are not subtracted.
func TestSelfTimeAccounting(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{name: "solve.build", op: 3, id: 1, parent: 0, start: 0, end: ms(10)},
		{name: "dag.decomp", op: 3, id: 2, parent: 0, start: ms(10), end: ms(11)},
		{name: "solve.stages", op: 3, id: 3, parent: 0, start: ms(11), end: ms(20)},
		{name: "core.lp", op: 3, id: 4, parent: 3, start: ms(11), end: ms(15)},
		{name: "core.round", op: 3, id: 5, parent: 3, start: ms(15), end: ms(18)},
	}
	self := selfTimes(spans)
	if len(self) != 1 || self[0] != 3 {
		t.Fatalf("self times %v, want [3]", self)
	}
	build, stages, s := buildAccounting(spans)
	if build != 10 || stages != 7 || s != 3 {
		t.Fatalf("accounting build %v = stages %v + self %v, want 10 = 7 + 3", build, stages, s)
	}
}
