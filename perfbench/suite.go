package main

import (
	"runtime"
	"time"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/evalharness"
	"sptc/internal/trace"
)

// suiteWorkload is the paper's evaluation as `sptbench -j 1` runs it:
// the ten benchmarks compiled at base, basic, best and anticipated and
// simulated at full fidelity on the bytecode engine by one worker. The
// inputs are fixed, so the seed does not change them.
type suiteWorkload struct{ cfg config }

type suiteRound struct {
	cfg     config
	benches []benchprog.Benchmark
	refs    []string
	refTime time.Duration

	tr       *trace.Tracer
	allocMB  float64
	res      *evalharness.SuiteResult
	suiteErr error
}

// roundSeconds is set under a sweep's 16-20 s, so that a 30-s run makes
// two sweeps and wall_s is the faster of them in every run.
func (w *suiteWorkload) roundSeconds() float64 { return 15 }

func (w *suiteWorkload) setup() (round, error) {
	r := &suiteRound{cfg: w.cfg, benches: benchprog.Suite()}
	d := &drawer{}
	for _, b := range r.benches {
		p, err := d.program(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		r.refs = append(r.refs, p.ref)
	}
	r.refTime = d.interp
	return r, nil
}

func (r *suiteRound) setupStats() setupStats { return setupStats{refMs: ms(r.refTime)} }

func (r *suiteRound) close() {}

func (r *suiteRound) work() error {
	opt := evalharness.DefaultEvalOptions()
	opt.Workers = 1
	if !r.cfg.traced {
		r.res, r.suiteErr = evalharness.RunSuite(opt)
		return nil
	}
	r.tr = trace.New()
	opt.Trace = r.tr
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.res, r.suiteErr = evalharness.RunSuite(opt)
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return nil
}

// finish checks every job: one base job and one job per level for each
// benchmark. A suite that aborts fails all of its jobs.
func (r *suiteRound) finish(wall time.Duration) (*roundResult, error) {
	levels := evalharness.DefaultEvalOptions().Levels
	jobs := len(r.benches) * (1 + len(levels))
	// The user-level operation is the sweep itself: single jobs of one
	// sweep are too few, and too much at the mercy of when the garbage
	// collector runs, for a steady median.
	rr := &roundResult{ops: []float64{ms(wall)}, samples: map[string][]float64{}}
	var t tally
	if r.suiteErr != nil || len(r.res.Runs) != len(r.benches) {
		for i := 0; i < jobs; i++ {
			t.add(errored)
		}
	} else {
		var speedups []float64
		for i, run := range r.res.Runs {
			ref := r.refs[i]
			v := passed
			switch {
			case run.BaseStatus != evalharness.StatusOK || run.Base == nil:
				v = errored
			case run.BaseOutput != ref || !inUnit(run.MaxCoverage):
				v = wrongData
			}
			t.add(v)
			rr.samples["core.compile_ms"] = append(rr.samples["core.compile_ms"], ms(run.BaseMetrics.Compile))
			for _, lvl := range levels {
				lr := run.Levels[lvl]
				v := passed
				switch {
				case lr == nil || lr.Status != evalharness.StatusOK || lr.Sim == nil:
					v = errored
				case lr.Output != ref || !inUnit(lr.Coverage) || !simRatiosOK(lr.Sim):
					v = wrongData
				}
				t.add(v)
				if lr == nil {
					continue
				}
				rr.samples["core.compile_ms"] = append(rr.samples["core.compile_ms"], ms(lr.Metrics.Compile))
				if lvl == core.LevelBest && v == passed {
					speedups = append(speedups, lr.Speedup)
				}
			}
		}
		rr.speedup = geomean(speedups)
	}
	rr.attempted, rr.failed, rr.wrong = t.attempted, t.failed, t.wrong
	if r.tr != nil {
		l := newLayers()
		l.addTracer(r.tr)
		rr.layers = l.metrics(wall)
		rr.layers["evalharness.jobs"] = float64(jobs)
		rr.layers["core.alloc_mb"] = r.allocMB
	}
	return rr, nil
}
