package main

import (
	"fmt"
	"strings"

	"sptc/internal/core"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/parser"
	"sptc/internal/sem"
)

// reference runs a program's unoptimized IR, straight from the front end,
// on the reference interpreter and returns its output; maxSteps > 0
// stops it with interp.ErrStepLimit past that many statements. Every
// check compares against this output, never against a stored copy.
func reference(name, src string, maxSteps int64) (string, error) {
	p, err := parser.Parse(name, src)
	if err != nil {
		return "", err
	}
	info, err := sem.Check(p)
	if err != nil {
		return "", err
	}
	prog, err := ir.Build(info)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	m := interp.New(prog, &out)
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	if _, err := m.Run(); err != nil {
		return "", fmt.Errorf("%s: reference run: %w", name, err)
	}
	return out.String(), nil
}

// simulate runs a compiled program on the SPT machine and returns its
// output.
func simulate(eng *machine.Engine, res *core.Result) (*machine.Result, string, error) {
	var out strings.Builder
	opt := core.SimulationOptions(res)
	opt.Out = &out
	sim, err := eng.Run(res.Prog, machine.DefaultConfig(), opt)
	return sim, out.String(), err
}

// verdict is the outcome of checking one operation.
type verdict int

const (
	passed     verdict = iota
	errored            // the operation failed or degraded
	wrongData          // the operation succeeded with a wrong output
	knownWrong         // a wrong output from a program of knownFaults
)

// tally counts operation verdicts. Every verdict but passed fails the
// operation; wrong records a wrong output that is not a known fault,
// which makes the run incorrect.
type tally struct {
	attempted, failed int
	wrong             bool
}

func (t *tally) add(v verdict) {
	t.attempted++
	if v != passed {
		t.failed++
	}
	if v == wrongData {
		t.wrong = true
	}
}

// simRatiosOK reports whether a simulation's coverage (cycles inside SPT
// loops over all cycles) and every loop's misspeculation ratio lie in
// [0, 1].
func simRatiosOK(sim *machine.Result) bool {
	var inLoops float64
	for _, ls := range sim.Loops {
		inLoops += ls.Elapsed
		if ls.SpecIters > 0 && !inUnit(float64(ls.MisspecIters)/float64(ls.SpecIters)) {
			return false
		}
	}
	return sim.Cycles > 0 && inUnit(inLoops/sim.Cycles)
}
