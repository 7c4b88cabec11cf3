// Command perfbench is the end-to-end benchmark of sptc. It runs one
// named workload, checks every output against the reference
// interpreter, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics, read from the spans the
// pipeline records and from the daemon's headers and /metrics. Workloads:
//
//	suite    the paper's evaluation sweep (evalharness.RunSuite, one worker)
//	compile  a fixed corpus, in seeded order, through core.CompileSource
//	         at three levels
//	daemon   a request sequence with seeded hits, served by sptd to two
//	         clients
//
// A run is a fixed number of rounds, each one set-up, one timed section
// and one check: -seconds divided by the workload's nominal round length,
// at least one. The count never depends on how fast the rounds run.
// See README.md for the metrics, workloads and measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// minSetups is how many set-ups a run times at least: setup_s is their
// median, so one slow set-up does not decide it.
const minSetups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what a workload needs from the command line.
type config struct {
	seed    int64
	traced  bool
	sptd    string // sptd binary (daemon)
	workdir string // scratch directory for daemon state
}

// workload prepares rounds.
type workload interface {
	// roundSeconds is the nominal length of one round, set-up and check
	// included, on a 2-vCPU machine (README.md). It fixes how many rounds
	// a run of -seconds makes.
	roundSeconds() float64
	// setup builds one round: its inputs, the reference outputs its
	// checks use and, for the daemon, a primed server.
	setup() (round, error)
}

// round is one prepared unit of the workload's fixed work.
type round interface {
	// work runs the timed section.
	work() error
	// finish checks the outputs, collects the round's measurements and
	// releases the round. wall is the timed section's duration.
	finish(wall time.Duration) (*roundResult, error)
	// close releases a round that is not run (an extra set-up).
	close()
	// setupStats reports the set-up's own layer timings.
	setupStats() setupStats
}

type setupStats struct {
	refMs   float64 // reference interpreter time
	startMs float64 // daemon start-up time
}

// roundResult is what one round measured.
type roundResult struct {
	ops       []float64 // latency of each timed operation, ms
	attempted int
	failed    int
	wrong     bool    // a successful operation returned a wrong output
	speedup   float64 // geometric mean base/best cycles
	rssMB     float64 // peak RSS of the serving process; 0: this process
	// layers holds the round's per-layer values (traced runs);
	// samples holds per-operation values pooled across rounds into
	// percentiles.
	layers  map[string]float64
	samples map[string][]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "", "workload: suite|compile|daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "run length in seconds")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&cfg.sptd, "sptd", "", "sptd binary (daemon workload)")
	fs.StringVar(&cfg.workdir, "workdir", "", "scratch directory for daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "usage: perfbench -workload suite|compile|daemon [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	cfg.traced = *traced == 1
	var w workload
	switch *name {
	case "suite":
		w = &suiteWorkload{cfg: cfg}
	case "compile":
		w = &compileWorkload{cfg: cfg}
	case "daemon":
		if cfg.sptd == "" || cfg.workdir == "" {
			fmt.Fprintln(stderr, "perfbench: the daemon workload needs -sptd and -workdir")
			return 2
		}
		w = &daemonWorkload{cfg: cfg}
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want suite, compile or daemon)\n", *name)
		return 2
	}
	out, err := measure(w, max(1, int(*seconds/w.roundSeconds())), cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure runs the given number of rounds, times at least minSetups
// set-ups, and folds everything into the printed result.
func measure(w workload, rounds int, traced bool) (*output, error) {
	var (
		setups  []float64
		walls   []float64
		results []*roundResult
		stats   []setupStats
	)
	setup := func() (round, error) {
		t0 := time.Now()
		r, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		stats = append(stats, r.setupStats())
		return r, nil
	}
	for len(results) < rounds {
		r, err := setup()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := r.work(); err != nil {
			r.close()
			return nil, err
		}
		wall := time.Since(t1)
		rr, err := r.finish(wall)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		results = append(results, rr)
	}
	for len(setups) < minSetups {
		r, err := setup()
		if err != nil {
			return nil, err
		}
		r.close()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d round(s), timed sections %.3gs, set-ups %.3gs\n", len(walls), walls, setups)
	return summarize(results, setups, walls, stats, traced), nil
}

// summarize folds the rounds into the printed result: medians over
// rounds and set-ups, percentiles over the operations of every round,
// and per-layer values averaged per round.
func summarize(results []*roundResult, setups, walls []float64, stats []setupStats, traced bool) *output {
	out := &output{Correct: true, Metrics: map[string]metric{}}
	var ops []float64
	var rss float64
	values := map[string]float64{}
	pooled := map[string][]float64{}
	for _, rr := range results {
		out.Attempted += rr.attempted
		out.Failed += rr.failed
		if rr.wrong {
			out.Correct = false
		}
		ops = append(ops, rr.ops...)
		rss = max(rss, rr.rssMB)
		for k, v := range rr.layers {
			values[k] += v / float64(len(results))
		}
		for k, v := range rr.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	if rss == 0 {
		rss = selfPeakRSSMB()
	}

	defs := perLayer
	if !traced {
		defs = endToEnd
		values = map[string]float64{
			"wall_s":       median(walls),
			"setup_s":      median(setups),
			"peak_rss_mb":  rss,
			"speedup_best": results[len(results)-1].speedup,
			"op_ms_p50":    percentile(ops, 50),
		}
	} else {
		var refs, starts []float64
		for _, s := range stats {
			refs = append(refs, s.refMs)
			starts = append(starts, s.startMs)
		}
		values["interp.ref_ms"] = median(refs)
		values["service.start_ms"] = median(starts)
		pooled["perfbench.op_ms"] = ops
		// Pooled samples are keyed by the metric name without its
		// percentile suffix.
		for k, xs := range pooled {
			for _, p := range []float64{50, 99} {
				values[fmt.Sprintf("%s_p%g", k, p)] = percentile(xs, p)
			}
		}
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// selfPeakRSSMB is this process's peak resident set size in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
