// Package anders implements an Andersen-style (inclusion-based,
// flow-insensitive) points-to analysis over the pointer IR, the analysis
// substrate that stands in for the paper's external LLVM/Paddle/geomPTA
// exporters. Its output is the normalized points-to matrix of §2, ready for
// any of the persistence encoders.
//
// The engine runs in two stages, both in wave.go:
//
//  1. Online cycle collapsing: copy cycles, including those that only
//     materialize during solving (through loads and stores), are detected
//     each round with Tarjan's algorithm and collapsed into a single
//     representative via union-find, in the style of Nuutila/lazy cycle
//     elimination.
//  2. Wave propagation: the condensed copy graph is topologically
//     levelized and point-to deltas are pulled level by level; each round
//     then scans the loads and stores to add the copy edges their new
//     points-to members imply. Andersen's least fixpoint is unique, and
//     every table the solver emits is derived deterministically from the
//     input program alone.
//
// Beyond the base analysis it provides call-site cloning (heap cloning
// included), which materializes k-callsite context sensitivity by program
// transformation, and the §6 canonicalization transforms that map
// flow-/context-/path-sensitive conditioned facts onto the plain binary
// matrix.
package anders

import (
	"fmt"
	"slices"
	"strings"

	"pestrie/internal/bitset"
	"pestrie/internal/ir"
	"pestrie/internal/matrix"
)

// Result is the outcome of an analysis: the points-to matrix plus the
// mapping between matrix indices and IR names. Pointer i is named
// PointerNames[i] ("func.var"); object j is named ObjectNames[j]
// (allocation site).
type Result struct {
	PM           *matrix.PointsTo
	PointerNames []string
	ObjectNames  []string

	// Stats describes the solved constraint system and what cycle
	// collapsing achieved on it.
	Stats Stats

	pointerIdx map[string]int
	objectIdx  map[string]int
}

// Stats summarizes one solver run.
type Stats struct {
	// Vars counts solver variables (program variables plus heap cells)
	// before any merging.
	Vars int
	// Objects counts abstract objects (allocation sites).
	Objects int
	// Constraints counts base, copy, load, and store constraints collected
	// from the (possibly cloned) program.
	Constraints int
	// CycleMerged counts variables merged by online copy-cycle collapsing.
	CycleMerged int
	// Rounds counts wave-propagation rounds to fixpoint.
	Rounds int
}

// PointerID returns the matrix row of the named pointer ("func.var"), or
// -1.
func (r *Result) PointerID(name string) int {
	if i, ok := r.pointerIdx[name]; ok {
		return i
	}
	return -1
}

// ObjectID returns the matrix column of the named allocation site, or -1.
func (r *Result) ObjectID(name string) int {
	if i, ok := r.objectIdx[name]; ok {
		return i
	}
	return -1
}

// Options configure the analysis.
type Options struct {
	// CloneDepth applies k-callsite cloning before solving: each function
	// body (and its allocation sites — heap cloning) is duplicated per
	// call chain of length up to CloneDepth. 0 is context-insensitive.
	// Recursive call edges are never cloned.
	CloneDepth int
}

// nodeID is a solver variable (a pointer).
type nodeID int

type solver struct {
	prog *ir.Program

	varIDs  map[string]nodeID
	varName []string
	objIDs  map[string]int
	objName []string

	// Collected constraints. Base constraints seed points-to sets; copy
	// constraints are graph edges; loads and stores are resolved online as
	// their pointer's set grows.
	base   [][2]int    // [var, obj]: var ⊇ {obj}
	copyC  [][2]nodeID // [src, dst]: dst ⊇ src
	loadC  [][2]nodeID // [src, dst]: dst = *src
	storeC [][2]nodeID // [dst, src]: *dst = src

	// firstHeap is the first heap-cell node: collect() creates one node
	// per allocation site after all program variables.
	firstHeap nodeID
	objVar    []nodeID // object -> heap-cell node
}

// Analyze runs the analysis and returns the normalized matrix.
func Analyze(prog *ir.Program, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if opts.CloneDepth < 0 {
		return nil, fmt.Errorf("anders: negative clone depth %d", opts.CloneDepth)
	}
	if opts.CloneDepth > 0 {
		var err error
		prog, err = CloneCallsites(prog, opts.CloneDepth)
		if err != nil {
			return nil, err
		}
	}
	s := &solver{
		prog:   prog,
		varIDs: map[string]nodeID{},
		objIDs: map[string]int{},
	}
	s.collect()

	stats := Stats{
		Vars:        len(s.varName),
		Objects:     len(s.objName),
		Constraints: len(s.base) + len(s.copyC) + len(s.loadC) + len(s.storeC),
	}
	w := newWaveSolver(s)
	w.solve()
	stats.CycleMerged = stats.Vars - w.uf.reps()
	stats.Rounds = w.rounds

	return s.result(w, stats), nil
}

func (s *solver) varOf(fn, v string) nodeID {
	name := fn + "." + v
	if id, ok := s.varIDs[name]; ok {
		return id
	}
	id := nodeID(len(s.varName))
	s.varIDs[name] = id
	s.varName = append(s.varName, name)
	return id
}

func (s *solver) objOf(site string) int {
	if id, ok := s.objIDs[site]; ok {
		return id
	}
	id := len(s.objName)
	s.objIDs[site] = id
	s.objName = append(s.objName, site)
	return id
}

func (s *solver) addCopy(src, dst nodeID) {
	if src != dst {
		s.copyC = append(s.copyC, [2]nodeID{src, dst})
	}
}

// collect builds base constraints from every statement (branch arms are
// flattened — the analysis is flow-insensitive); calls become copy edges
// between arguments/parameters and between the callee's returns and the
// call's destination. Each function's return variables are gathered once up
// front, so wiring call results is O(call sites), not O(calls × stmts).
func (s *solver) collect() {
	returns := make(map[string][]string, len(s.prog.Funcs))
	for _, f := range s.prog.Funcs {
		var rv []string
		ir.Walk(f.Body, func(st *ir.Stmt) {
			if st.Kind == ir.Return {
				rv = append(rv, st.Src)
			}
		})
		returns[f.Name] = rv
	}
	for _, f := range s.prog.Funcs {
		fn := f.Name
		ir.Walk(f.Body, func(st *ir.Stmt) {
			switch st.Kind {
			case ir.Alloc, ir.Source:
				// A taint source allocates a labelled abstract object, so
				// downstream clients can resolve the label through the
				// persisted points-to information.
				s.base = append(s.base, [2]int{int(s.varOf(fn, st.Dst)), s.objOf(st.Site)})
			case ir.Copy:
				s.addCopy(s.varOf(fn, st.Src), s.varOf(fn, st.Dst))
			case ir.Load:
				s.loadC = append(s.loadC, [2]nodeID{s.varOf(fn, st.Src), s.varOf(fn, st.Dst)})
			case ir.Store:
				s.storeC = append(s.storeC, [2]nodeID{s.varOf(fn, st.Dst), s.varOf(fn, st.Src)})
			case ir.Call:
				callee := s.prog.Func(st.Callee)
				for i, a := range st.Args {
					s.addCopy(s.varOf(fn, a), s.varOf(callee.Name, callee.Params[i]))
				}
				if st.Dst != "" {
					dst := s.varOf(fn, st.Dst)
					for _, rv := range returns[callee.Name] {
						s.addCopy(s.varOf(callee.Name, rv), dst)
					}
				}
			case ir.Sink:
				// No constraints, but register the consumed pointer so it
				// gets a matrix row clients can query.
				s.varOf(fn, st.Src)
			case ir.Return, ir.Branch:
				// Returns are wired at call sites from the precomputed
				// table; branch arms are visited by the walk itself.
			}
		})
	}
	// One heap-cell variable per allocation site (field-insensitive heap
	// model), created after every program variable in object-ID order so
	// node numbering depends only on the program.
	s.firstHeap = nodeID(len(s.varName))
	s.objVar = make([]nodeID, len(s.objName))
	for o, site := range s.objName {
		s.objVar[o] = s.varOf("@heap", site)
	}
}

// result assembles the matrix: rows for every program variable plus the
// heap cells of objects that were actually dereferenced (matching what a
// points-to exporter emits — untouched sites have no pointer-valued cell),
// ordered deterministically by name.
func (s *solver) result(w *waveSolver, stats Stats) *Result {
	// An object is dereferenced iff it appears in the final points-to set
	// of some variable with load or store constraints — a property of the
	// (unique) fixpoint, not of solve order.
	derefed := bitset.New()
	for _, v := range w.activeReps() {
		if len(w.loads[v]) > 0 || len(w.stores[v]) > 0 {
			derefed.Or(w.pts[v])
		}
	}
	skip := make([]bool, len(s.varName))
	for o, ov := range s.objVar {
		if ov >= s.firstHeap && !derefed.Test(o) {
			skip[ov] = true
		}
	}

	var order []nodeID
	for v := range s.varName {
		if !skip[v] {
			order = append(order, nodeID(v))
		}
	}
	slices.SortFunc(order, func(a, b nodeID) int { return strings.Compare(s.varName[a], s.varName[b]) })

	res := &Result{
		PM:         matrix.New(len(order), len(s.objName)),
		Stats:      stats,
		pointerIdx: map[string]int{},
		objectIdx:  map[string]int{},
	}
	for row, v := range order {
		res.PointerNames = append(res.PointerNames, s.varName[v])
		res.pointerIdx[s.varName[v]] = row
		res.PM.SetRow(row, w.pts[w.uf.find(v)].Copy())
	}
	res.ObjectNames = append(res.ObjectNames, s.objName...)
	for o, n := range s.objName {
		res.objectIdx[n] = o
	}
	return res
}

// CloneCallsites duplicates function bodies (and their allocation sites)
// per call site, up to the given depth, skipping recursive edges — a
// program-transformation rendering of k-callsite context sensitivity with
// heap cloning. Cloned functions are named f@cs where cs identifies the
// call site; cloned sites inherit the suffix, so each clone gets its own
// abstract objects.
func CloneCallsites(prog *ir.Program, depth int) (*ir.Program, error) {
	if depth < 0 {
		return nil, fmt.Errorf("anders: negative clone depth")
	}
	out := &ir.Program{}
	// A function is cloned lazily per (name, context) pair; context is the
	// call-site chain string.
	type key struct{ name, ctx string }
	cloned := map[key]string{}

	var cloneFunc func(name, ctx string, stack []string) (string, error)
	cloneFunc = func(name, ctx string, stack []string) (string, error) {
		k := key{name, ctx}
		if n, ok := cloned[k]; ok {
			return n, nil
		}
		src := prog.Func(name)
		if src == nil {
			return "", fmt.Errorf("anders: unknown function %q", name)
		}
		newName := name
		if ctx != "" {
			newName = name + "@" + ctx
		}
		cloned[k] = newName
		f := &ir.Func{Name: newName, Params: append([]string(nil), src.Params...)}
		out.Funcs = append(out.Funcs, f)

		// Call sites are numbered across the whole function (branch arms
		// included) so each clone key stays unique.
		siteNo := 0
		var cloneBody func(body []ir.Stmt) ([]ir.Stmt, error)
		cloneBody = func(body []ir.Stmt) ([]ir.Stmt, error) {
			var outBody []ir.Stmt
			for _, st := range body {
				st := st // copy
				switch st.Kind {
				case ir.Alloc, ir.Source:
					// Heap cloning applies to taint sites too: each clone
					// gets its own labelled object.
					if ctx != "" {
						st.Site = st.Site + "@" + ctx
					}
				case ir.Branch:
					thenArm, err := cloneBody(st.Then)
					if err != nil {
						return nil, err
					}
					elseArm, err := cloneBody(st.Else)
					if err != nil {
						return nil, err
					}
					st.Then, st.Else = thenArm, elseArm
				case ir.Call:
					callee := st.Callee
					recursive := callee == name
					for _, anc := range stack {
						if anc == callee {
							recursive = true
							break
						}
					}
					siteNo++
					if !recursive && len(stack) < depth {
						cs := fmt.Sprintf("%s#%d", newName, siteNo)
						sub, err := cloneFunc(callee, cs, append(stack, name))
						if err != nil {
							return nil, err
						}
						st.Callee = sub
					}
					// Recursive or depth-exhausted calls target the
					// context-insensitive original, cloned under the
					// empty context.
					if st.Callee == callee {
						sub, err := cloneFunc(callee, "", append(stack, name))
						if err != nil {
							return nil, err
						}
						st.Callee = sub
					}
				}
				outBody = append(outBody, st)
			}
			return outBody, nil
		}
		body, err := cloneBody(src.Body)
		if err != nil {
			return "", err
		}
		f.Body = body
		return newName, nil
	}

	for _, f := range prog.Funcs {
		if _, err := cloneFunc(f.Name, "", nil); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("anders: cloning produced invalid program: %w", err)
	}
	return out, nil
}
