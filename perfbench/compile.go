package main

import (
	"runtime"
	"time"

	"sptc/internal/core"
	"sptc/internal/machine"
	"sptc/internal/trace"
)

// compileLevels are the levels every corpus program is compiled at.
var compileLevels = []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated}

// compileWorkload is the sptc user's per-file latency: a seeded corpus
// compiled by core.CompileSource with serial pass 1 and no simulation in
// the timed section.
type compileWorkload struct{ cfg config }

type compileRound struct {
	cfg     config
	progs   []program
	refTime time.Duration

	tr      *trace.Tracer
	allocMB float64
	lat     []float64      // per call, program-major then level
	results []*core.Result // same order
	errs    []error
}

// roundSeconds: a round took 2.6-3.0 s.
func (w *compileWorkload) roundSeconds() float64 { return 3 }

func (w *compileWorkload) setup() (round, error) {
	r := &compileRound{cfg: w.cfg}
	var err error
	r.progs, r.refTime, err = compileCorpus(w.cfg.seed)
	return r, err
}

func (r *compileRound) setupStats() setupStats { return setupStats{refMs: ms(r.refTime)} }

func (r *compileRound) close() {}

func (r *compileRound) work() error {
	n := len(r.progs) * len(compileLevels)
	r.lat = make([]float64, 0, n)
	r.results = make([]*core.Result, 0, n)
	r.errs = make([]error, 0, n)
	var before runtime.MemStats
	if r.cfg.traced {
		r.tr = trace.New()
		runtime.ReadMemStats(&before)
	}
	for _, p := range r.progs {
		for _, lvl := range compileLevels {
			opt := core.DefaultOptions(lvl)
			opt.Trace = r.tr.StartTrack(p.name + "/" + lvl.String())
			start := time.Now()
			res, err := core.CompileSource(p.name, p.src, opt)
			r.lat = append(r.lat, ms(time.Since(start)))
			r.results = append(r.results, res)
			r.errs = append(r.errs, err)
		}
	}
	if r.cfg.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return nil
}

// finish checks every compile by simulating the compiled program: its
// output must equal the reference, it must not be degraded, and its
// coverage and misspeculation ratios must lie in [0, 1]. The base
// program is compiled and simulated too, for the best level's speedup.
func (r *compileRound) finish(wall time.Duration) (*roundResult, error) {
	rr := &roundResult{ops: r.lat, samples: map[string][]float64{"core.compile_ms": r.lat}}
	var t tally
	var speedups []float64
	eng := machine.NewEngine()
	for i, p := range r.progs {
		var baseCycles float64
		if res, err := core.CompileSource(p.name, p.src, core.DefaultOptions(core.LevelBase)); err == nil {
			if sim, out, err := simulate(eng, res); err == nil && out == p.ref {
				baseCycles = sim.Cycles
			}
		}
		for li, lvl := range compileLevels {
			k := i*len(compileLevels) + li
			res, err := r.results[k], r.errs[k]
			v := passed
			var sim *machine.Result
			switch {
			case err != nil || res.Degraded():
				v = errored
			default:
				var out string
				sim, out, err = simulate(eng, res)
				switch {
				case err != nil:
					v = errored
				case out != p.ref || !simRatiosOK(sim):
					v = wrongData
				}
			}
			if v == wrongData && p.knownFault {
				v = knownWrong
			}
			t.add(v)
			if lvl == core.LevelBest && v == passed && baseCycles > 0 {
				speedups = append(speedups, baseCycles/sim.Cycles)
			}
		}
	}
	rr.attempted, rr.failed, rr.wrong = t.attempted, t.failed, t.wrong
	rr.speedup = geomean(speedups)
	if r.tr != nil {
		l := newLayers()
		l.addTracer(r.tr)
		rr.layers = l.metrics(wall)
		rr.layers["core.alloc_mb"] = r.allocMB
	}
	return rr, nil
}
