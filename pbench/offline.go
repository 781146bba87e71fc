package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"pestrie"
)

// offlineShape is one program of the offline corpus, a sixth of the
// served program (about 3k pointers and 0.1M facts), so a run holds about
// a hundred pipelines.
var offlineShape = progShape{Modules: 16, FuncsPerMod: 10, Structs: 4, Values: 8, Stmts: 20, Lib: 64}

const (
	corpusSize    = 16 // distinct programs, run round-robin
	offlineChecks = 64 // queries checked against the oracle per pipeline
)

// runOffline runs the library pipeline over the corpus until the window
// closes: parse, solve, build, encode, and decode are timed; the answer
// checks after each run are not.
func runOffline(ctx context.Context, cfg config) (*outcome, error) {
	tr := newTracer(cfg.trace)
	out := &outcome{correct: true, spans: tr, layers: map[string]metric{}}
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	corpus := make([]string, corpusSize)
	for i := range corpus {
		corpus[i] = genProgram(rng, offlineShape)
	}

	// Set-up: the served workloads' program taken to a decoded index,
	// the first time cold, repeated so setup_s is a median.
	warm := servedProgram()
	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		_, pes, err := encodeProgram(warm, nil, 0)
		if err != nil {
			return nil, err
		}
		if _, err := pestrie.Load(bytes.NewReader(pes)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}

	oracles := make([]*version, corpusSize)
	streams := make([]*stream, corpusSize)
	sizes := make([]int, corpusSize)
	var samples []sample // work is the facts of the program
	var pesBytes int64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for i := int64(0); ctx.Err() == nil && time.Now().Before(deadline); i++ {
		k := i % corpusSize
		out.attempted++
		t0 := time.Now()
		pm, pes, err := encodeProgram(corpus[k], tr, i)
		if err != nil {
			out.failed++
			continue
		}
		t1 := time.Now()
		idx, err := pestrie.Load(bytes.NewReader(pes))
		t2 := time.Now()
		if err != nil {
			out.failed++
			continue
		}
		tr.add("pipeline", "", i, t0, t2)
		tr.add("decode", "pipeline", i, t1, t2)
		pesBytes += int64(len(pes))

		if oracles[k] == nil {
			f, err := readFacts(pm)
			if err != nil {
				return nil, err
			}
			oracles[k] = &version{facts: f}
			streams[k] = newStream(cfg.seed, f, 0)
			sizes[k] = len(pes)
		} else if len(pes) != sizes[k] {
			out.fail(fmt.Sprintf("program %d encoded to %d bytes, earlier to %d", k, len(pes), sizes[k]))
		}
		samples = append(samples, sample{t2.Sub(t0), float64(oracles[k].n)})
		for _, q := range streams[k].batch(i, offlineChecks) {
			if err := oracles[k].check(q, ask(idx, q)); err != nil {
				out.fail(fmt.Sprintf("program %d: %v", k, err))
				break
			}
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no pipeline completed")
	}
	// The rate is facts per second of pipeline time: the answer checks
	// between pipelines are the benchmark's work, not the program's.
	p50, p90 := latencies(samples)
	var facts float64
	var busy time.Duration
	for _, s := range samples {
		facts += s.work
		busy += s.lat
	}
	rate := facts / busy.Seconds()
	out.e2e = map[string]metric{
		"p50_ms":     {ms(p50), "ms"},
		"p90_ms":     {ms(p90), "ms"},
		"throughput": {rate, "1/s"},
		"setup_s":    {quantile(setups, 0.5).Seconds(), "s"},
	}
	if cfg.trace {
		for _, l := range []string{"parse", "solve", "build", "encode", "decode"} {
			out.layers[l+"_ms"] = metric{ms(tr.mean(l)), "ms"}
		}
		out.layers["pes_bytes"] = metric{float64(pesBytes) / float64(len(samples)), "bytes"}
	}
	return out, nil
}

// ask answers q in process, shaped like a server reply slot.
func ask(idx *pestrie.Index, q query) answer {
	var ids []int
	switch q.op {
	case opIsAlias:
		a := idx.IsAlias(int(q.a), int(q.b))
		return answer{Alias: &a}
	case opAliases:
		ids = idx.ListAliases(int(q.a))
	case opPointsTo:
		ids = idx.ListPointsTo(int(q.a))
	case opPointedBy:
		ids = idx.ListPointedBy(int(q.a))
	}
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return answer{IDs: out}
}
