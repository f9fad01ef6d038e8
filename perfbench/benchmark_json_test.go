package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics
// the benchmark prints in step: same workloads with the same reasons,
// same metric names, units and directions, in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: json %+v, code %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: json %+v, code %+v", i, m, c)
		}
	}
}
