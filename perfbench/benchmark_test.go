package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json — what the
// benchmark promises to print — in step with what this command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		kind string
		json []named
		code []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", set.kind, len(set.json), len(set.code))
			continue
		}
		for i, m := range set.code {
			if set.json[i].Name != m.name || set.json[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]",
					set.kind, i, set.json[i].Name, set.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
