package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMetricNamesMatchBenchmarkJSON pins the printed metric names and
// units to the contract in BENCHMARK.json: an untraced run prints
// exactly the end-to-end metrics and a traced run exactly the per-layer
// ones.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.Name] = x.Unit
		}
		return m
	}
	printed := func(traced bool) map[string]string {
		rr := &roundResult{ops: []float64{1}, layers: map[string]float64{}, samples: map[string][]float64{}}
		out := summarize([]*roundResult{rr}, []float64{1}, []float64{1}, []setupStats{{}}, traced)
		m := map[string]string{}
		for k, v := range out.Metrics {
			m[k] = v.Unit
		}
		return m
	}
	for _, c := range []struct {
		name   string
		traced bool
		want   map[string]string
	}{{"end_to_end", false, want(bench.EndToEnd)}, {"per_layer", true, want(bench.PerLayer)}} {
		got := printed(c.traced)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: printed %v\nBENCHMARK.json %v", c.name, keys(got), keys(c.want))
		}
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, k+"["+v+"]")
	}
	sort.Strings(ks)
	return ks
}
