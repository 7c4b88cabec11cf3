package main

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"sptc/internal/interp"
	"sptc/internal/splgen"
)

// program is one generated SPL source with its reference output.
type program struct {
	name string
	src  string
	ref  string // output of the reference interpreter
	// knownFault marks a program of knownFaults: a wrong output from it
	// fails the operation but does not make the run incorrect.
	knownFault bool
}

// poolSeed seeds the programs of both workloads. The programs do not
// depend on --seed, which decides only the order they are compiled or
// requested in: every run attempts the same operations, so an operation
// that fails, fails in every run, and a compiler change that breaks a
// program cannot move it out of the inputs.
const poolSeed = 20_040_601

// stepLimit skips generated programs the reference interpreter does not
// finish within this many statements (0.7% of splgen.Generate's draws):
// one of them would decide a round's length.
const stepLimit = 100_000

// knownFaults are splgen.Generate seeds of programs the basic level
// miscompiles (README.md, "Known fault"). The compile corpus always holds
// them, so the fault shows as failed operations in every run.
var knownFaults = []int64{2236675137959942466, 7769290638662812238, 95388369897809656}

// drawer draws programs from one seeded stream and accounts the
// reference interpreter's time.
type drawer struct {
	rng    *rand.Rand
	interp time.Duration
}

// program runs src on the reference interpreter.
func (d *drawer) program(name, src string) (program, error) { return d.run(name, src, 0) }

func (d *drawer) run(name, src string, maxSteps int64) (program, error) {
	t := time.Now()
	ref, err := reference(name, src, maxSteps)
	d.interp += time.Since(t)
	return program{name: name, src: src, ref: ref}, err
}

// generated draws n splgen.Generate programs that finish within
// stepLimit statements, named prefix000-gen.spl and on.
func (d *drawer) generated(prefix string, n int) ([]program, error) {
	var progs []program
	for len(progs) < n {
		p, err := d.run(fmt.Sprintf("%s%03d-gen.spl", prefix, len(progs)), splgen.Generate(d.rng.Int63()), stepLimit)
		if errors.Is(err, interp.ErrStepLimit) {
			continue
		}
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// adversarial draws n splgen.Adversarial programs, named
// prefix000-adv.spl and on.
func (d *drawer) adversarial(prefix string, n int) ([]program, error) {
	progs := make([]program, n)
	for i := range progs {
		p, err := d.program(fmt.Sprintf("%s%03d-adv.spl", prefix, i), splgen.Adversarial(d.rng.Int63()))
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// compileCorpus is the compile workload's input: 162 programs, 105
// splgen.Generate programs and the three knownFaults (two-thirds), and
// 54 splgen.Adversarial programs (one-third), in an order shuffled by
// seed. Generated programs come in splgen's own mix of sizes.
func compileCorpus(seed int64) ([]program, time.Duration, error) {
	d := &drawer{rng: rand.New(rand.NewSource(poolSeed))}
	progs, err := d.generated("g", 105)
	if err != nil {
		return nil, 0, err
	}
	for i, s := range knownFaults {
		p, err := d.program(fmt.Sprintf("f%03d-gen.spl", i), splgen.Generate(s))
		if err != nil {
			return nil, 0, err
		}
		p.knownFault = true
		progs = append(progs, p)
	}
	adv, err := d.adversarial("a", 54)
	if err != nil {
		return nil, 0, err
	}
	progs = append(progs, adv...)
	rand.New(rand.NewSource(seed)).Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	return progs, d.interp, nil
}

// sequence is one daemon round's request stream.
type sequence struct {
	primed []program
	misses []program
	// clients holds each client's requests in order, as indices into
	// primed (>= 0) or misses (-1-k for miss k).
	clients [2][]int
}

// hitsPerMiss sets the hit/miss mix so that hits and misses take about
// equal shares of the timed section, as in the roadmap's unit of one
// cold and one warm request. A miss added 9.3 ms to a round and a hit
// 0.36 ms (rounds of misses alone against rounds with 60 hits per miss,
// README.md), so a miss weighs about 25 hits.
const hitsPerMiss = 25

// indexRe matches the masked array-index offsets splgen emits inside
// loop bodies ("+ 17) & 63"); changing one edits exactly one statement
// of one loop nest.
var indexRe = regexp.MustCompile(`\+ (\d+)\) & 63`)

// editOneLoop changes one index offset of src, which must have one.
func editOneLoop(rng *rand.Rand, src string) string {
	locs := indexRe.FindAllStringSubmatchIndex(src, -1)
	loc := locs[rng.Intn(len(locs))]
	n, _ := strconv.Atoi(src[loc[2]:loc[3]])
	n = (n + 1 + rng.Intn(62)) % 64
	return src[:loc[2]] + strconv.Itoa(n) + src[loc[3]:]
}

// daemonSequence builds a round's requests. There are 16 primed
// programs, 13 generated and 3 adversarial; set-up simulates them, so
// later requests for them are hits. Each miss is requested once,
// alternating a new program (16, of the same make-up) with a one-loop
// edit of a primed program, whose unchanged loops the daemon's loop store
// can splice in. Edits go round the primed programs that have an array
// index to change (every adversarial one does). These programs are fixed;
// the seed draws which primed program each hit asks for. Misses are
// spread evenly through the stream, and the stream is dealt alternately
// to the two clients.
func daemonSequence(seed int64) (*sequence, time.Duration, error) {
	d := &drawer{rng: rand.New(rand.NewSource(poolSeed + 1))}
	mix := func(prefix string) ([]program, error) {
		gen, err := d.generated(prefix, 13)
		if err != nil {
			return nil, err
		}
		adv, err := d.adversarial(prefix, 3)
		return append(gen, adv...), err
	}
	seq := &sequence{}
	var err error
	if seq.primed, err = mix("p"); err != nil {
		return nil, 0, err
	}
	fresh, err := mix("n")
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, p := range append(append([]program(nil), seq.primed...), fresh...) {
		seen[p.src] = true
	}
	var editable []program
	for _, p := range seq.primed {
		if indexRe.MatchString(p.src) {
			editable = append(editable, p)
		}
	}
	for k := range fresh {
		orig := editable[k%len(editable)]
		src := editOneLoop(d.rng, orig.src)
		for seen[src] {
			src = editOneLoop(d.rng, orig.src)
		}
		seen[src] = true
		edit, err := d.program(fmt.Sprintf("e%03d-%s", k, orig.name), src)
		if err != nil {
			return nil, 0, err
		}
		seq.misses = append(seq.misses, fresh[k], edit)
	}

	rng := rand.New(rand.NewSource(seed))
	total := len(seq.misses) * (1 + hitsPerMiss)
	next := 0
	for i := 0; i < total; i++ {
		item := rng.Intn(len(seq.primed))
		if next < len(seq.misses) && i == next*total/len(seq.misses) {
			item = -1 - next
			next++
		}
		seq.clients[i%2] = append(seq.clients[i%2], item)
	}
	return seq, d.interp, nil
}
