package main

import (
	"strings"
	"testing"
	"time"
)

func TestLayerSelfTimes(t *testing.T) {
	at := func(name string, begin, dur int64, ints map[string]int64) span {
		return span{name: name, begin: time.Duration(begin) * time.Millisecond, dur: time.Duration(dur) * time.Millisecond, ints: ints}
	}
	l := newLayers()
	l.addTrack([]span{
		at("compile", 0, 100, nil),
		at("parse", 0, 10, nil),
		at("profile", 10, 40, nil),
		at("pass1", 50, 40, nil),
		at("loop", 55, 15, map[string]int64{"search_nodes": 7}),
		at("loop", 70, 5, map[string]int64{"search_nodes": 3}),
		at("simulate", 100, 20, map[string]int64{"sim_instructions": 1000}),
	})
	m := l.metrics(130 * time.Millisecond)
	for name, want := range map[string]float64{
		"core.compile_self_ms":   10,
		"parser.parse_ms":        10,
		"profile.ms":             40,
		"partition.pass1_ms":     20,
		"partition.search_ms":    20,
		"partition.loops":        2,
		"partition.search_nodes": 10,
		"machine.simulate_ms":    20,
		"machine.ns_per_op":      20_000,
		"perfbench.residual_ms":  10,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}

	// The daemon's Chrome export: microsecond events, track labels as
	// metadata, and only the kept tracks count.
	doc := `{"traceEvents":[
		{"name":"thread_name","ph":"M","tid":1,"args":{"name":"p000.spl/best#1"}},
		{"name":"profile","ph":"X","ts":0,"dur":5000,"tid":1},
		{"name":"thread_name","ph":"M","tid":2,"args":{"name":"n000.spl/best#2"}},
		{"name":"compile","ph":"X","ts":100,"dur":3000,"tid":2},
		{"name":"profile","ph":"X","ts":200,"dur":2000,"tid":2,"args":{"runs":1}}]}`
	l = newLayers()
	if err := l.addChrome(strings.NewReader(doc), func(label string) bool { return !strings.HasPrefix(label, "p") }); err != nil {
		t.Fatal(err)
	}
	m = l.metrics(0)
	if m["profile.ms"] != 2 || m["core.compile_self_ms"] != 1 || l.ints["profile.runs"] != 1 {
		t.Errorf("chrome: profile %v ms, compile self %v ms, runs counter %v; want 2, 1, 1", m["profile.ms"], m["core.compile_self_ms"], l.ints["profile.runs"])
	}
}
