package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

func corpusDigest(t *testing.T, seed int64) string {
	t.Helper()
	progs, _, err := compileCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	return digest(progs)
}

func sequenceDigest(t *testing.T, seed int64) string {
	t.Helper()
	seq, _, err := daemonSequence(seed)
	if err != nil {
		t.Fatal(err)
	}
	return digest(append(append([]program(nil), seq.primed...), seq.misses...), seq.clients[0], seq.clients[1])
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func(*testing.T, int64) string
	}{{"compile corpus", corpusDigest}, {"request sequence", sequenceDigest}} {
		a, b, other := c.fn(t, 7), c.fn(t, 7), c.fn(t, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", c.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", c.name, a)
		}
	}
}

// TestCorpusMakeup pins the make-up of both inputs, and that the seed
// changes only their order: the programs, and so the operations a run
// attempts, are the same for every seed.
func TestCorpusMakeup(t *testing.T) {
	sources := func(progs []program) map[string]string {
		m := map[string]string{}
		for _, p := range progs {
			if _, dup := m[p.name]; dup {
				t.Errorf("program name %s repeats", p.name)
			}
			m[p.name] = p.src
		}
		return m
	}
	var corpora []map[string]string
	for _, seed := range []int64{1, 2} {
		progs, _, err := compileCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]int{}
		for _, p := range progs {
			count[p.name[:1]+p.name[len(p.name)-8:]]++
			if p.knownFault != strings.HasPrefix(p.name, "f") {
				t.Errorf("%s: knownFault %v", p.name, p.knownFault)
			}
		}
		want := map[string]int{"g-gen.spl": 105, "f-gen.spl": len(knownFaults), "a-adv.spl": 54}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: corpus make-up %v, want %v", seed, count, want)
		}
		corpora = append(corpora, sources(progs))
	}
	if !reflect.DeepEqual(corpora[0], corpora[1]) {
		t.Error("seeds 1 and 2 drew different compile corpora")
	}

	var primed []map[string]string
	for _, seed := range []int64{3, 4} {
		seq, _, err := daemonSequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		misses, hits := 0, 0
		for _, reqs := range seq.clients {
			for _, item := range reqs {
				if item < 0 {
					misses++
				} else {
					hits++
				}
			}
		}
		if len(seq.primed) != 16 || len(seq.misses) != 32 || misses != 32 || hits != 32*hitsPerMiss {
			t.Errorf("sequence: %d primed, %d misses (%d requested), %d hits", len(seq.primed), len(seq.misses), misses, hits)
		}
		seen := map[string]bool{}
		for _, p := range append(append([]program(nil), seq.primed...), seq.misses...) {
			if seen[p.src] {
				t.Errorf("program %s repeats an earlier source", p.name)
			}
			seen[p.src] = true
		}
		primed = append(primed, sources(append(append([]program(nil), seq.primed...), seq.misses...)))
	}
	if !reflect.DeepEqual(primed[0], primed[1]) {
		t.Error("seeds 3 and 4 drew different daemon programs")
	}
}

// digest fingerprints a list of programs and request orders.
func digest(progs []program, orders ...[]int) string {
	h := fnv.New64a()
	for _, p := range progs {
		fmt.Fprintf(h, "%s\x00%s\x00", p.name, p.src)
	}
	for _, o := range orders {
		fmt.Fprintf(h, "%v\x00", o)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
