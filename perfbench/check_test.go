package main

import (
	"encoding/json"
	"math/rand"
	"testing"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/evalharness"
	"sptc/internal/machine"
	"sptc/internal/service"
)

// smallPrograms draws n small generated programs with their references.
func smallPrograms(t *testing.T, n int) []program {
	t.Helper()
	d := &drawer{rng: rand.New(rand.NewSource(11))}
	progs, err := d.generated("t", n)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestCompileCorruptedReferenceFails(t *testing.T) {
	progs := smallPrograms(t, 2)
	progs[1].ref += "corrupted\n"
	r := &compileRound{progs: progs}
	if err := r.work(); err != nil {
		t.Fatal(err)
	}
	rr, err := r.finish(0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(compileLevels)
	if rr.attempted != 2*n || rr.failed != n || !rr.wrong {
		t.Errorf("attempted %d failed %d wrong %v, want %d, %d, true", rr.attempted, rr.failed, rr.wrong, 2*n, n)
	}
}

func TestSuiteCorruptedReferenceFails(t *testing.T) {
	// One benchmark's results, built by hand: base plus three levels
	// whose outputs all match the reference.
	sim := &machine.Result{Cycles: 100}
	run := &evalharness.BenchmarkRun{Name: "b", Base: sim, BaseOutput: "42\n", Levels: map[core.Level]*evalharness.LevelRun{}}
	for _, lvl := range evalharness.DefaultEvalOptions().Levels {
		run.Levels[lvl] = &evalharness.LevelRun{Level: lvl, Sim: sim, Output: "42\n", Speedup: 1}
	}
	res := &evalharness.SuiteResult{Runs: []*evalharness.BenchmarkRun{run}}
	for _, c := range []struct {
		ref        string
		failed     int
		wrongInRun bool
	}{{"42\n", 0, false}, {"43\n", 4, true}} {
		r := &suiteRound{benches: make([]benchprog.Benchmark, 1), refs: []string{c.ref}, res: res}
		rr, err := r.finish(0)
		if err != nil {
			t.Fatal(err)
		}
		if rr.attempted != 4 || rr.failed != c.failed || rr.wrong != c.wrongInRun {
			t.Errorf("ref %q: attempted %d failed %d wrong %v, want 4, %d, %v", c.ref, rr.attempted, rr.failed, rr.wrong, c.failed, c.wrongInRun)
		}
	}
}

func TestDaemonCorruptedReferenceFails(t *testing.T) {
	p := smallPrograms(t, 1)[0]
	bodies, _ := localBodies([]program{p})
	var resp service.SimulateResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	resp.Meta.Cache = service.DispMiss
	r := &daemonRound{seq: &sequence{misses: []program{p}}, missWant: bodies}
	if v := r.check(call{item: -1, resp: &resp}); v != passed {
		t.Fatalf("intact reference: verdict %v, want passed", v)
	}
	r.seq.misses[0].ref += "corrupted\n"
	if v := r.check(call{item: -1, resp: &resp}); v != wrongData {
		t.Errorf("corrupted reference: verdict %v, want wrongData", v)
	}
}
