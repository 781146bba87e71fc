package synth

import (
	"math/rand"

	"pestrie/internal/delta"
	"pestrie/internal/matrix"
)

// EditConfig shapes a deterministic stream of program edits over a base
// matrix — the reproducible delta workload PIP-style incremental clients
// need (PAPERS.md). Every step flips a handful of points-to facts, the way
// re-analyzing an edited function moves a few rows of PM while the rest of
// the program stands still.
type EditConfig struct {
	// Seed drives the whole stream: same base + same config = the same
	// segment bytes, step for step.
	Seed int64

	// EditsPerStep is how many facts each step tries to flip (<= 0: 64).
	EditsPerStep int

	// AddFrac is the fraction of edits that add a fact rather than remove
	// one (<= 0 or > 1: 0.7 — programs mostly grow).
	AddFrac float64

	// GrowEvery appends fresh pointers and objects every GrowEvery-th step
	// (0: dimensions never change — required when the IDs must keep naming
	// a fixed program, as in ptalint's incremental mode).
	GrowEvery int

	// GrowPointers/GrowObjects are the per-growth-step dimension bumps
	// (<= 0: 8 and 4). Each new pointer receives one fact so growth is
	// observable in queries.
	GrowPointers int
	GrowObjects  int

	// BaseHint is stamped into every emitted segment (chain.go).
	BaseHint uint64
}

func (cfg *EditConfig) withDefaults() EditConfig {
	out := *cfg
	if out.EditsPerStep <= 0 {
		out.EditsPerStep = 64
	}
	if out.AddFrac <= 0 || out.AddFrac > 1 {
		out.AddFrac = 0.7
	}
	if out.GrowPointers <= 0 {
		out.GrowPointers = 8
	}
	if out.GrowObjects <= 0 {
		out.GrowObjects = 4
	}
	return out
}

// EditStream deterministically mutates a points-to matrix and emits one
// delta segment per step, each chained onto the previous by generation
// stamp (base = generation 0).
type EditStream struct {
	cfg  EditConfig
	rng  *rand.Rand
	pm   *matrix.PointsTo
	gen  uint64
	step int
}

// NewEditStream starts a stream over a copy of base, so the caller's
// matrix stays the generation-0 state.
func NewEditStream(base *matrix.PointsTo, cfg EditConfig) *EditStream {
	c := cfg.withDefaults()
	return &EditStream{
		cfg: c,
		rng: rand.New(rand.NewSource(c.Seed)),
		pm:  base.Clone(),
	}
}

// Gen returns the generation the stream is at (number of steps taken).
func (es *EditStream) Gen() uint64 { return es.gen }

// Matrix returns the stream's current matrix — the facts at generation
// Gen. The caller must not mutate it; Clone before editing.
func (es *EditStream) Matrix() *matrix.PointsTo { return es.pm }

// Next advances one step and returns the resulting segment (never nil:
// a step whose random edits all cancel retries until something changes).
func (es *EditStream) Next() *delta.Segment {
	prev := es.pm.Clone()
	for {
		es.step++
		es.mutate()
		seg, err := delta.Diff(prev, es.pm)
		if err != nil {
			panic("synth: edit stream produced a shrinking diff: " + err.Error())
		}
		if seg == nil {
			continue // every edit cancelled out; take another step
		}
		es.gen++
		seg.Gen = es.gen
		seg.Parent = es.gen - 1
		seg.BaseHint = es.cfg.BaseHint
		return seg
	}
}

// mutate applies one step of random edits in place.
func (es *EditStream) mutate() {
	if es.cfg.GrowEvery > 0 && es.step%es.cfg.GrowEvery == 0 {
		grown := es.pm.Grown(
			es.pm.NumPointers+es.cfg.GrowPointers,
			es.pm.NumObjects+es.cfg.GrowObjects)
		for p := es.pm.NumPointers; p < grown.NumPointers; p++ {
			grown.Add(p, es.rng.Intn(grown.NumObjects))
		}
		es.pm = grown
	}
	for i := 0; i < es.cfg.EditsPerStep; i++ {
		if es.rng.Float64() < es.cfg.AddFrac {
			es.addFact()
		} else {
			es.removeFact()
		}
	}
}

// addFact inserts a previously absent fact, skewing toward pointers that
// already point somewhere (edits cluster in live code). A few misses and
// the edit is skipped — the draw sequence, and thus the stream, stays
// deterministic either way.
func (es *EditStream) addFact() {
	for try := 0; try < 8; try++ {
		p := es.rng.Intn(es.pm.NumPointers)
		o := es.rng.Intn(es.pm.NumObjects)
		if !es.pm.Has(p, o) {
			es.pm.Add(p, o)
			return
		}
	}
}

// removeFact deletes a random existing fact of a random non-empty row.
func (es *EditStream) removeFact() {
	for try := 0; try < 8; try++ {
		p := es.rng.Intn(es.pm.NumPointers)
		row := es.pm.Row(p)
		n := row.Count()
		if n == 0 {
			continue
		}
		members := row.Members()
		es.pm.Remove(p, members[es.rng.Intn(len(members))])
		return
	}
}
