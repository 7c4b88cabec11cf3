package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sptc/internal/trace"
)

// span is one recorded pipeline span, reduced to what the layer
// accounting reads.
type span struct {
	name  string
	begin time.Duration
	dur   time.Duration
	ints  map[string]int64
}

// spanLayers maps the span names the pipeline records to the per-layer
// metric that carries their self time.
var spanLayers = map[string]string{
	"parse":     "parser.parse_ms",
	"sem":       "sem.check_ms",
	"build":     "ir.build_ms",
	"ssa":       "ssa.construct_ms",
	"cleanup":   "ssa.cleanup_ms",
	"unroll":    "transform.unroll_ms",
	"privatize": "transform.privatize_ms",
	"svp":       "transform.svp_ms",
	"transform": "transform.spt_ms",
	"compile":   "core.compile_self_ms",
	"pass2":     "core.pass2_ms",
	"pass1":     "partition.pass1_ms",
	"loop":      "partition.search_ms",
	"profile":   "profile.ms",
	"simulate":  "machine.simulate_ms",
	"coverage":  "machine.coverage_ms",
}

// layers accumulates self time and counters over the spans of many
// tracks.
type layers struct {
	self map[string]time.Duration // span name -> summed self time
	n    map[string]int64         // span name -> span count
	ints map[string]int64         // "span.counter" -> summed value
}

func newLayers() *layers {
	return &layers{self: map[string]time.Duration{}, n: map[string]int64{}, ints: map[string]int64{}}
}

// addTrack folds one track's spans, given in start order. Nesting is
// recovered from the intervals: a span is the child of the innermost
// earlier span still open when it begins, and a span's self time is its
// duration minus its direct children's.
func (l *layers) addTrack(spans []span) {
	children := make([]time.Duration, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if s.begin < top.begin+top.dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			children[stack[len(stack)-1]] += s.dur
		}
		stack = append(stack, i)
	}
	for i, s := range spans {
		self := s.dur - children[i]
		if self < 0 {
			self = 0
		}
		l.self[s.name] += self
		l.n[s.name]++
		for k, v := range s.ints {
			l.ints[s.name+"."+k] += v
		}
	}
}

// addTracer folds every track of an in-process tracer.
func (l *layers) addTracer(tr *trace.Tracer) {
	for _, tk := range tr.Tracks() {
		var spans []span
		for _, s := range tk.Spans() {
			sp := span{name: s.Name, begin: s.Begin, dur: s.Dur}
			for _, a := range s.Args {
				if a.Kind == trace.ArgInt {
					if sp.ints == nil {
						sp.ints = map[string]int64{}
					}
					sp.ints[a.Key] = a.I
				}
			}
			spans = append(spans, sp)
		}
		l.addTrack(spans)
	}
}

// addChrome folds a Chrome trace_event export (the daemon's
// /debug/trace), keeping only the tracks whose label keep accepts.
func (l *layers) addChrome(r io.Reader, keep func(label string) bool) error {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	labels := map[int]string{}
	tracks := map[int][]span{}
	var order []int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if name, ok := ev.Args["name"].(string); ok {
				labels[ev.TID] = name
			}
		case "X":
			sp := span{
				name:  ev.Name,
				begin: time.Duration(ev.TS * float64(time.Microsecond)),
				dur:   time.Duration(ev.Dur * float64(time.Microsecond)),
			}
			for k, v := range ev.Args {
				if f, ok := v.(float64); ok {
					if sp.ints == nil {
						sp.ints = map[string]int64{}
					}
					sp.ints[k] = int64(f)
				}
			}
			if _, seen := tracks[ev.TID]; !seen {
				order = append(order, ev.TID)
			}
			tracks[ev.TID] = append(tracks[ev.TID], sp)
		}
	}
	for _, tid := range order {
		if keep(labels[tid]) {
			l.addTrack(tracks[tid])
		}
	}
	return nil
}

// metrics returns the per-layer metrics the spans determine, plus the
// residual: wall minus the self time of every named layer.
func (l *layers) metrics(wall time.Duration) map[string]float64 {
	m := map[string]float64{}
	var named time.Duration
	for span, name := range spanLayers {
		m[name] = ms(l.self[span])
		named += l.self[span]
	}
	m["core.spt_loops"] = float64(l.ints["transform.spt_loops"])
	m["partition.loops"] = float64(l.n["loop"])
	m["partition.search_nodes"] = float64(l.ints["loop.search_nodes"])
	m["cost.evals"] = float64(l.ints["loop.cost_evals"])
	m["cost.dedup_hits"] = float64(l.ints["loop.dedup_hits"])
	m["cost.recomputes"] = float64(l.ints["loop.recomputes"])
	m["profile.runs"] = float64(l.n["profile"])
	ops := l.ints["simulate.sim_instructions"]
	m["machine.sim_ops"] = float64(ops)
	if ops > 0 {
		m["machine.ns_per_op"] = float64(l.self["simulate"]) / float64(ops)
	}
	m["perfbench.wall_ms"] = ms(wall)
	m["perfbench.residual_ms"] = ms(wall - named)
	return m
}
