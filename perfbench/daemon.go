package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sptc/internal/incr"
	"sptc/internal/machine"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// daemonWorkload is the cold/warm request unit: one sptd process with a
// single execution worker, a persistent response cache and the loop
// store serves a seeded request sequence to two closed-loop clients.
// Every request is a best-level compile+simulate with the base
// comparison, as `sptsim -server -compare -level best` sends it.
type daemonWorkload struct {
	cfg    config
	rounds int
}

// call is one timed request.
type call struct {
	item int // index into primed (>= 0) or misses (-1-k)
	lat  time.Duration
	resp *service.SimulateResponse
	err  error
}

type daemonRound struct {
	cfg config
	seq *sequence

	// Reference data, computed in-process during set-up.
	primedWant, missWant [][]byte // service.Local response bodies
	speedup              float64
	refTime, startTime   time.Duration

	dir      string
	cmd      *exec.Cmd
	url      string
	client   *http.Client
	primedAt [][]byte // the daemon's first answer for each primed program
	before   service.Metrics

	calls [2][]call
}

func simRequest(p program) *service.SimulateRequest {
	return &service.SimulateRequest{Name: p.name, Source: p.src, Level: "best", Compare: true}
}

// localBodies runs the requests in order through an in-process
// service.Local configured like the daemon (fresh request track, one
// loop store shared in request order), returning each response body and
// the geometric-mean speedup of best over base.
func localBodies(progs []program) ([][]byte, float64) {
	store := incr.New()
	eng := machine.NewEngine()
	bodies := make([][]byte, len(progs))
	var speedups []float64
	for i, p := range progs {
		local := &service.Local{Env: service.Env{Track: trace.New().StartTrack(p.name), Incr: store, Eng: eng}}
		resp, err := local.Simulate(simRequest(p))
		if err != nil {
			continue
		}
		if b, err := json.Marshal(resp); err == nil {
			bodies[i] = b
		}
		if resp.Base != nil && resp.Sim.Cycles > 0 {
			speedups = append(speedups, resp.Base.Cycles/resp.Sim.Cycles)
		}
	}
	return bodies, geomean(speedups)
}

// roundSeconds: a round took 1.1-1.3 s.
func (w *daemonWorkload) roundSeconds() float64 { return 1.2 }

func (w *daemonWorkload) setup() (round, error) {
	w.rounds++
	r := &daemonRound{cfg: w.cfg}
	var err error
	if r.seq, r.refTime, err = daemonSequence(w.cfg.seed); err != nil {
		return nil, err
	}
	all := append(append([]program(nil), r.seq.primed...), r.seq.misses...)
	np := len(r.seq.primed)
	bodies, speedup := localBodies(all)
	r.primedWant, r.missWant, r.speedup = bodies[:np], bodies[np:], speedup

	r.dir = filepath.Join(w.cfg.workdir, fmt.Sprintf("daemon-%d-%d", os.Getpid(), w.rounds))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	// A priming request that fails leaves its first answer nil, so every
	// hit on that program fails its check.
	r.primedAt = make([][]byte, np)
	remote := r.remote()
	for i, p := range r.seq.primed {
		if resp, err := remote.Simulate(simRequest(p)); err == nil {
			r.primedAt[i], _ = json.Marshal(resp)
		}
	}
	if r.cfg.traced {
		if r.before, err = r.metrics(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// start launches sptd and waits for its listening line.
func (r *daemonRound) start() error {
	tracks := len(r.seq.primed) + len(r.seq.misses) + 1
	r.cmd = exec.Command(r.cfg.sptd,
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-cache", filepath.Join(r.dir, "responses.cache"),
		"-incr-cache", filepath.Join(r.dir, "loops.incr"),
		"-trace-tracks", strconv.Itoa(tracks))
	r.cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it crashes.
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := r.cmd.StdoutPipe()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := r.cmd.Start(); err != nil {
		r.cmd = nil
		return fmt.Errorf("start sptd: %w", err)
	}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		url := ""
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sptd: listening on "); ok && url == "" {
				url = rest
				found <- url
			}
		}
		if url == "" {
			close(found)
		}
	}()
	select {
	case url, ok := <-found:
		if !ok {
			return fmt.Errorf("sptd exited before listening")
		}
		r.url = url
	case <-time.After(60 * time.Second):
		return fmt.Errorf("sptd did not start within 60s")
	}
	r.startTime = time.Since(t0)
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return nil
}

func (r *daemonRound) remote() *service.Remote {
	return &service.Remote{URL: r.url, HTTPClient: r.client}
}

func (r *daemonRound) metrics() (service.Metrics, error) {
	var m service.Metrics
	resp, err := r.client.Get(r.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

func (r *daemonRound) setupStats() setupStats {
	return setupStats{refMs: ms(r.refTime), startMs: ms(r.startTime)}
}

// work drives the two clients. Misses are sent in sequence order: a
// client waits for the previous miss's answer before sending the next
// one, so the loop store holds the same loops at every miss as it did
// for the in-process reference, whichever client sends it.
func (r *daemonRound) work() error {
	done := make([]chan struct{}, len(r.seq.misses))
	for k := range done {
		done[k] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for c := range r.seq.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			remote := r.remote()
			calls := make([]call, 0, len(r.seq.clients[c]))
			for _, item := range r.seq.clients[c] {
				var p program
				if item >= 0 {
					p = r.seq.primed[item]
				} else {
					k := -1 - item
					if k > 0 {
						<-done[k-1]
					}
					p = r.seq.misses[k]
				}
				start := time.Now()
				resp, err := remote.Simulate(simRequest(p))
				calls = append(calls, call{item: item, lat: time.Since(start), resp: resp, err: err})
				if item < 0 {
					close(done[-1-item])
				}
			}
			r.calls[c] = calls
		}(c)
	}
	wg.Wait()
	return nil
}

// check judges one timed response: byte-identical to the in-process
// reference (and, for a hit, to the daemon's first answer), outputs equal
// to the reference interpreter's, not degraded, ratios in [0, 1], and
// served with the expected cache disposition.
func (r *daemonRound) check(c call) verdict {
	if c.err != nil || c.resp.Compile == nil || c.resp.Sim == nil || c.resp.Compile.Degraded {
		return errored
	}
	var want, first []byte
	var ref string
	disp := service.DispMiss
	if c.item >= 0 {
		want, ref, disp, first = r.primedWant[c.item], r.seq.primed[c.item].ref, service.DispHit, r.primedAt[c.item]
	} else {
		k := -1 - c.item
		want, ref = r.missWant[k], r.seq.misses[k].ref
	}
	if c.resp.Meta.Cache != disp {
		return errored
	}
	body, err := json.Marshal(c.resp)
	if err != nil {
		return errored
	}
	if want == nil || !bytes.Equal(body, want) || (c.item >= 0 && !bytes.Equal(body, first)) {
		return wrongData
	}
	if c.resp.Output != ref || c.resp.BaseOutput != ref {
		return wrongData
	}
	if !simRatiosOK(service.ReconstructSim(c.resp.Sim)) {
		return wrongData
	}
	return passed
}

func (r *daemonRound) finish(wall time.Duration) (*roundResult, error) {
	rr := &roundResult{speedup: r.speedup, samples: map[string][]float64{}}
	var t tally
	var incrHits, incrMisses int64
	for _, calls := range r.calls {
		for _, c := range calls {
			t.add(r.check(c))
			lat := ms(c.lat)
			rr.ops = append(rr.ops, lat)
			var exec time.Duration
			if c.resp != nil {
				exec = c.resp.Meta.Compile + c.resp.Meta.Simulate
			}
			rr.samples["service.queue_ms"] = append(rr.samples["service.queue_ms"], lat-ms(exec))
			if c.item >= 0 {
				rr.samples["service.hit_ms"] = append(rr.samples["service.hit_ms"], lat)
				continue
			}
			rr.samples["service.miss_ms"] = append(rr.samples["service.miss_ms"], lat)
			rr.samples["service.exec_ms"] = append(rr.samples["service.exec_ms"], ms(exec))
			if c.resp != nil && c.resp.Compile != nil {
				rr.samples["core.compile_ms"] = append(rr.samples["core.compile_ms"], ms(c.resp.Meta.Compile))
				incrHits += c.resp.Compile.Counters.IncrHits
				incrMisses += c.resp.Compile.Counters.IncrMisses
			}
		}
	}
	rr.attempted, rr.failed, rr.wrong = t.attempted, t.failed, t.wrong

	var err error
	if r.cfg.traced {
		err = r.collectLayers(rr, wall)
		rr.layers["incr.hits"] = float64(incrHits)
		rr.layers["incr.misses"] = float64(incrMisses)
	}
	rss, serr := r.stop()
	rr.rssMB = rss
	r.removeDir()
	if err == nil {
		err = serr
	}
	return rr, err
}

// collectLayers reads the daemon's counters and the spans it recorded
// for the round's misses.
func (r *daemonRound) collectLayers(rr *roundResult, wall time.Duration) error {
	rr.layers = map[string]float64{}
	after, err := r.metrics()
	if err != nil {
		return err
	}
	resp, err := r.client.Get(r.url + "/debug/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	l := newLayers()
	// Request tracks are labelled "<name>/<level>#<n>"; only primed
	// programs' names start with "p".
	if err := l.addChrome(resp.Body, func(label string) bool { return !strings.HasPrefix(label, "p") }); err != nil {
		return err
	}
	rr.layers = l.metrics(wall)
	rr.layers["service.hits"] = float64(after.CacheHits - r.before.CacheHits)
	rr.layers["service.misses"] = float64(after.CacheMisses - r.before.CacheMisses)
	rr.layers["service.joins"] = float64(after.StampedeJoins - r.before.StampedeJoins)
	return nil
}

// stop shuts the daemon down gracefully (SIGTERM: drain, save both
// stores), kills it if it does not exit in time, and returns its peak
// RSS in MB.
func (r *daemonRound) stop() (float64, error) {
	if r.cmd == nil {
		return 0, nil
	}
	cmd := r.cmd
	r.cmd = nil
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var werr error
	select {
	case werr = <-exited:
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		werr = fmt.Errorf("sptd did not shut down within 60s")
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if werr != nil {
		return rss, fmt.Errorf("sptd: %w", werr)
	}
	return rss, nil
}

func (r *daemonRound) removeDir() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *daemonRound) close() {
	r.stop()
	r.removeDir()
}
