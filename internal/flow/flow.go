// Package flow implements a flow-sensitive points-to analysis over the
// pointer IR — the style of the paper's first benchmark group (the
// flow-sensitive algorithm of Lhoták and Chung with strong updates). Its
// results are constrained facts "at program point l, p points to o"
// ((l, p) → o), exactly the representation §6 canonicalizes into the
// binary matrix via p_l renaming, which closes the loop from a native
// flow-sensitive producer through NormalizeFlow into the persistence
// layer.
//
// The IR is straight-line per function, so flow sensitivity manifests as
// statement ordering and strong updates: a re-assignment of a variable
// kills its previous points-to set, which the flow-insensitive Andersen
// solver must merge. Calls are handled with a two-phase approach: a
// context-insensitive Andersen pass supplies sound effects for call
// statements and heap cells, and the flow-sensitive pass refines local
// variables between them.
package flow

import (
	"fmt"

	"pestrie/internal/anders"
	"pestrie/internal/bitset"
	"pestrie/internal/ir"
	"pestrie/internal/matrix"
)

// Result is the outcome of the flow-sensitive analysis.
type Result struct {
	// Facts are the constrained points-to facts: at Point (function name
	// plus statement index of the defining statement), Ptr points to Obj.
	Facts []anders.FlowFact

	// Normalized is the §6 flattening of Facts: the binary matrix over
	// p_l pointers, with name tables.
	Normalized *anders.Normalized

	// Insensitive is the Andersen result used for call/heap effects.
	Insensitive *anders.Result
}

// PointName renders the program point of statement idx in function fn.
func PointName(fn string, idx int) string {
	return fmt.Sprintf("%s:%d", fn, idx)
}

// Analyze runs the flow-sensitive analysis.
func Analyze(prog *ir.Program) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	base, err := anders.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Insensitive: base}

	for _, f := range prog.Funcs {
		analyzeFunc(f, base, res)
	}
	res.Normalized = anders.NormalizeFlow(res.Facts)
	return res, nil
}

// analyzeFunc walks the function body in order, maintaining the current
// points-to set of each local with strong updates, and emits one fact per
// (defining statement, pointed-to object). Branch arms are analyzed from a
// copy of the incoming state and joined afterwards (set union per
// variable), with join facts emitted at a synthetic point numbered after
// both arms so "latest definition" stays meaningful.
func analyzeFunc(f *ir.Func, base *anders.Result, res *Result) {
	cur := map[string]*bitset.Set{}

	// Parameters start from the context-insensitive summary — the sound
	// merge over all callers.
	for _, param := range f.Params {
		cur[param] = baseRow(base, f.Name, param)
	}

	counter := 0
	next := func() int {
		counter++
		return counter - 1
	}

	emit := func(idx int, v string, set *bitset.Set) {
		if set == nil {
			return
		}
		point := PointName(f.Name, idx)
		set.ForEach(func(o int) bool {
			res.Facts = append(res.Facts, anders.FlowFact{
				Point: point,
				Ptr:   v,
				Obj:   base.ObjectNames[o],
			})
			return true
		})
	}

	var walk func(body []ir.Stmt, state map[string]*bitset.Set, defs map[string]bool)
	walk = func(body []ir.Stmt, state map[string]*bitset.Set, defs map[string]bool) {
		for _, st := range body {
			idx := next()
			switch st.Kind {
			case ir.Alloc, ir.Source:
				// Strong update: the destination now points exactly to
				// the site.
				set := bitset.New()
				if o := base.ObjectID(st.Site); o >= 0 {
					set.Set(o)
				}
				state[st.Dst] = set
				defs[st.Dst] = true
				emit(idx, st.Dst, set)
			case ir.Copy:
				set := lookup(state, base, f.Name, st.Src).Copy()
				state[st.Dst] = set
				defs[st.Dst] = true
				emit(idx, st.Dst, set)
			case ir.Load:
				// dst = *src: union of the heap cells of everything src
				// may point to; heap cells come from the sound base
				// analysis (stores elsewhere may interleave through
				// calls).
				set := bitset.New()
				lookup(state, base, f.Name, st.Src).ForEach(func(o int) bool {
					set.Or(heapRow(base, o))
					return true
				})
				state[st.Dst] = set
				defs[st.Dst] = true
				emit(idx, st.Dst, set)
			case ir.Store:
				// Heap cells are weakly updated and owned by the base
				// analysis; the store does not change any local binding.
			case ir.Call:
				if st.Dst != "" {
					// The call's result comes from the base summary of
					// the callee's returns — sound for any context.
					set := baseRow(base, f.Name, st.Dst)
					state[st.Dst] = set
					defs[st.Dst] = true
					emit(idx, st.Dst, set)
				}
			case ir.Return, ir.Sink:
				// No binding change.
			case ir.Branch:
				thenState := copyState(state)
				elseState := copyState(state)
				armDefs := map[string]bool{}
				walk(st.Then, thenState, armDefs)
				walk(st.Else, elseState, armDefs)
				joinIdx := next()
				for v := range armDefs {
					joined := lookup(thenState, base, f.Name, v).Copy()
					joined.Or(lookup(elseState, base, f.Name, v))
					state[v] = joined
					defs[v] = true
					emit(joinIdx, v, joined)
				}
			}
		}
	}
	walk(f.Body, cur, map[string]bool{})
}

func copyState(state map[string]*bitset.Set) map[string]*bitset.Set {
	out := make(map[string]*bitset.Set, len(state))
	for k, v := range state {
		out[k] = v.Copy()
	}
	return out
}

// lookup returns the current flow-sensitive set of v, falling back to the
// base analysis for names never strongly defined here (parameters already
// seeded; globals of other functions cannot be referenced by the IR).
func lookup(cur map[string]*bitset.Set, base *anders.Result, fn, v string) *bitset.Set {
	if s, ok := cur[v]; ok {
		return s
	}
	s := baseRow(base, fn, v)
	cur[v] = s
	return s
}

func baseRow(base *anders.Result, fn, v string) *bitset.Set {
	p := base.PointerID(fn + "." + v)
	if p < 0 {
		return bitset.New()
	}
	return base.PM.Row(p).Copy()
}

func heapRow(base *anders.Result, obj int) *bitset.Set {
	p := base.PointerID("@heap." + base.ObjectNames[obj])
	if p < 0 {
		return bitset.New()
	}
	return base.PM.Row(p)
}

// FinalFacts projects the flow-sensitive result down to the *last*
// definition of every variable — the per-variable view a client wanting
// "points-to at function exit" uses.
func (r *Result) FinalFacts() map[string][]string {
	last := map[string]string{} // func.var -> latest point seen
	objs := map[string]map[string]bool{}
	for _, f := range r.Facts {
		key := funcOf(f.Point) + "." + f.Ptr
		if prev, ok := last[key]; !ok || pointAfter(f.Point, prev) {
			if !ok || f.Point != prev {
				objs[key] = map[string]bool{}
			}
			last[key] = f.Point
		}
		if last[key] == f.Point {
			objs[key][f.Obj] = true
		}
	}
	out := map[string][]string{}
	for key, set := range objs {
		for o := range set {
			out[key] = append(out[key], o)
		}
	}
	return out
}

func funcOf(point string) string {
	for i := len(point) - 1; i >= 0; i-- {
		if point[i] == ':' {
			return point[:i]
		}
	}
	return point
}

func idxOf(point string) int {
	idx := 0
	for i := len(point) - 1; i >= 0; i-- {
		if point[i] == ':' {
			for _, c := range point[i+1:] {
				idx = idx*10 + int(c-'0')
			}
			break
		}
	}
	return idx
}

// pointAfter reports whether point a is a later statement than b (same
// function assumed).
func pointAfter(a, b string) bool { return idxOf(a) > idxOf(b) }

// MatrixWithNames returns the normalized matrix plus resolving helpers.
func (r *Result) MatrixWithNames() (*matrix.PointsTo, *anders.Normalized) {
	return r.Normalized.PM, r.Normalized
}
