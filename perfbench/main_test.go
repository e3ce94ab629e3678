package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestPlantSeed: the seed reaches every generated configuration, and
// the same seed gives the same configurations.
func TestPlantSeed(t *testing.T) {
	for _, w := range workloadDefs {
		a, b, c := configs(w.request(5, 2)), configs(w.request(5, 2)), configs(w.request(6, 2))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different configurations", w.name)
		}
		if len(a) != len(c) || reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 give %d/%d points, equal=%v", w.name, len(a), len(c), reflect.DeepEqual(a, c))
		}
		for _, cfg := range a {
			if cfg.Workload.Seed != seedValue(5) || (cfg.Hosts > 1 && cfg.Fabric.Seed != seedValue(5)) {
				t.Errorf("%s: %s lacks the seed", w.name, cfg.Name())
			}
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the command reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	var gotNames []string
	for _, w := range doc.Workloads {
		gotNames = append(gotNames, w.Name)
	}
	if !reflect.DeepEqual(gotNames, names) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", gotNames, names)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}
