package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"

	"pestrie"
)

// facts is the oracle's view of one points-to matrix, read from the raw
// export of the analysis result: sorted points-to rows and the inverse
// pointed-by columns.
type facts struct {
	pts [][]int32 // pointer → sorted object IDs
	pby [][]int32 // object → sorted pointer IDs
	n   int       // number of facts
}

// readFacts decodes the raw export format (FORMATS.md "Raw export").
func readFacts(pm *pestrie.Matrix) (*facts, error) {
	var buf bytes.Buffer
	if _, err := pm.WriteRaw(&buf); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	next := func() (int, error) {
		if len(raw) < 4 {
			return 0, fmt.Errorf("raw export truncated")
		}
		v := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		return int(v), nil
	}
	np, err := next()
	if err != nil {
		return nil, err
	}
	no, err := next()
	if err != nil {
		return nil, err
	}
	f := &facts{pts: make([][]int32, np), pby: make([][]int32, no)}
	for p := range f.pts {
		c, err := next()
		if err != nil {
			return nil, err
		}
		row := make([]int32, c)
		for i := range row {
			o, err := next()
			if err != nil {
				return nil, err
			}
			if o >= no {
				return nil, fmt.Errorf("raw export: object %d out of range", o)
			}
			row[i] = int32(o)
		}
		slices.Sort(row)
		f.pts[p] = row
		f.n += c
		for _, o := range row {
			f.pby[o] = append(f.pby[o], int32(p))
		}
	}
	return f, nil
}

// version is the facts at one generation of a delta chain: the base plus
// the rows changed since it.
type version struct {
	*facts
	dirty map[int32][]int32
}

func (v *version) row(p int32) []int32 {
	if r, ok := v.dirty[p]; ok {
		return r
	}
	return v.pts[p]
}

func (v *version) pointedBy(o int32) []int32 {
	var out []int32
	for _, p := range v.pby[o] {
		if r, ok := v.dirty[p]; ok && !has(r, o) {
			continue
		}
		out = append(out, p)
	}
	for p, r := range v.dirty {
		if has(r, o) && !has(v.pby[o], p) {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// aliases is every pointer sharing an object with p, excluding p.
func (v *version) aliases(p int32) []int32 {
	seen := map[int32]bool{p: true}
	var out []int32
	for _, o := range v.row(p) {
		for _, q := range v.pointedBy(o) {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	slices.Sort(out)
	return out
}

func (v *version) isAlias(p, q int32) bool {
	a, b := v.row(p), v.row(q)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func has(sorted []int32, x int32) bool {
	_, ok := slices.BinarySearch(sorted, x)
	return ok
}

// The four Table-1 queries.
const (
	opIsAlias = iota
	opAliases
	opPointsTo
	opPointedBy
)

var opNames = [...]string{"isalias", "aliases", "pointsto", "pointedby"}

type query struct {
	op   int
	a, b int32 // p and q; o for pointedby
}

// answer is one reply slot as the server encodes it.
type answer struct {
	Alias *bool   `json:"alias"`
	IDs   []int32 `json:"ids"`
	Err   string  `json:"error"`
}

// check compares one answer with the oracle at version v.
func (v *version) check(q query, a answer) error {
	if a.Err != "" {
		return fmt.Errorf("%s(%d,%d): error %q", opNames[q.op], q.a, q.b, a.Err)
	}
	var want []int32
	switch q.op {
	case opIsAlias:
		w := v.isAlias(q.a, q.b)
		if a.Alias == nil || *a.Alias != w {
			return fmt.Errorf("isalias(%d,%d): got %v, want %v", q.a, q.b, a.Alias, w)
		}
		return nil
	case opAliases:
		want = v.aliases(q.a)
	case opPointsTo:
		want = v.row(q.a)
	case opPointedBy:
		want = v.pointedBy(q.a)
	}
	got := slices.Clone(a.IDs)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s(%d): got %d ids, want %d (or different members)", opNames[q.op], q.a, len(got), len(want))
	}
	return nil
}

// mix is the query mix, leaning on IsAlias the way compiler clients do
// (§7.1.1 of the paper issues IsAlias over base-pointer pairs).
var mix = [...]int{opIsAlias: 60, opAliases: 15, opPointsTo: 15, opPointedBy: 10}

// stream generates the query stream. Batch i depends only on the seed and
// i, never on which client sends it or how many clients there are.
type stream struct {
	seed  uint64
	ptrs  []int32 // pointers with non-empty points-to sets, in hotness order
	objs  []int32 // objects pointed to by at least one pointer, likewise
	zipfS float64 // > 1 draws ranks from a zipf law; 0 draws uniformly
}

func newStream(seed uint64, f *facts, zipfS float64) *stream {
	s := &stream{seed: seed, zipfS: zipfS}
	for p, r := range f.pts {
		if len(r) > 0 {
			s.ptrs = append(s.ptrs, int32(p))
		}
	}
	for o, c := range f.pby {
		if len(c) > 0 {
			s.objs = append(s.objs, int32(o))
		}
	}
	// Hotness is unrelated to ID order: shuffle the rank → ID maps.
	rng := rand.New(rand.NewPCG(seed, 2))
	rng.Shuffle(len(s.ptrs), func(i, j int) { s.ptrs[i], s.ptrs[j] = s.ptrs[j], s.ptrs[i] })
	rng.Shuffle(len(s.objs), func(i, j int) { s.objs[i], s.objs[j] = s.objs[j], s.objs[i] })
	return s
}

// phaseBatches is how long a zipf hot set lasts. The hot set then moves
// on, so a run averages over many hot sets instead of resting on the
// handful of keys one seed happens to make hot.
const phaseBatches = 64

func (s *stream) batch(i int64, n int) []query {
	rng := rand.New(rand.NewPCG(s.seed, uint64(i)+1<<32))
	var zp, zo *rand.Zipf
	if s.zipfS > 1 {
		zp = rand.NewZipf(rng, s.zipfS, 1, uint64(len(s.ptrs)-1))
		zo = rand.NewZipf(rng, s.zipfS, 1, uint64(len(s.objs)-1))
	}
	shift := uint64(i/phaseBatches) * 7919
	pick := func(pop []int32, z *rand.Zipf) int32 {
		if z != nil {
			return pop[(z.Uint64()+shift)%uint64(len(pop))]
		}
		return pop[rng.IntN(len(pop))]
	}
	qs := make([]query, n)
	for k := range qs {
		r := rng.IntN(100)
		op := 0
		for r >= mix[op] {
			r -= mix[op]
			op++
		}
		q := query{op: op}
		if op == opPointedBy {
			q.a = pick(s.objs, zo)
		} else {
			q.a = pick(s.ptrs, zp)
		}
		if op == opIsAlias {
			q.b = pick(s.ptrs, zp)
		}
		qs[k] = q
	}
	return qs
}
