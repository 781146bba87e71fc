package anders

// Online solving: wave propagation over the condensed copy graph, in the
// style of Pereira & Berlin ("Wave Propagation and Deep Propagation for
// Pointer Analysis", CGO'09), with Nuutila-style lazy cycle elimination.
//
// Each round:
//
//  1. collapse: run Tarjan over the current copy graph and merge every
//     multi-node SCC into its minimum-ID member via union-find. Copy
//     cycles force their members' points-to sets equal at the fixpoint,
//     so a cycle is pure duplicate work; collapsing also makes the
//     remaining graph a DAG, which is what lets one wave be complete.
//  2. schedule: levelize the DAG (longest path from a root), so that
//     every copy edge goes from a lower level to a strictly higher one.
//  3. wave: process levels in order. A node *pulls* from its predecessors
//     — the delta (dif) over already-propagated bits for established
//     edges, the full set for edges added since the last wave — then
//     records its own delta. Its predecessors all sit at lower,
//     already-finished levels, so one pass is complete: deltas ride the
//     wave transitively down the DAG.
//  4. deref: scan each load/store pointer's delta since the last scan and
//     turn new points-to members into copy edges (load `d = *p` yields
//     obj→d, store `*p = s` yields s→obj), merged into the sorted
//     successor lists. If no edge was truly new, the system is closed and
//     the least fixpoint has been reached.
//
// Determinism: the fixpoint itself is unique, and every intermediate
// structure (representatives, edge lists, level assignment) is derived by
// value from the constraint system.

import (
	"slices"

	"pestrie/internal/bitset"
)

type waveSolver struct {
	s      *solver
	uf     *unionFind
	rounds int

	// Per-representative state (nil for merged-away nodes).
	pts       []*bitset.Set // current points-to set
	done      []*bitset.Set // portion of pts already propagated to successors
	dif       []*bitset.Set // this wave's delta, pulled by successors
	derefDone []*bitset.Set // portion of pts already expanded into deref edges

	// clean[v] records that done[v] == pts[v] when the last wave finished
	// processing v. A clean node whose pulls all report no change can
	// publish the shared empty delta without materialising pts\done.
	// Collapse invalidates the flag for merge targets (their done set is
	// intersected).
	clean    []bool
	emptyDif *bitset.Set // shared read-only delta for unchanged clean nodes

	succ    [][]nodeID // copy edges, sorted unique representative IDs
	newSucc [][]nodeID // subset of succ added since the last wave
	loads   [][]nodeID // v -> destinations of loads `d = *v`
	stores  [][]nodeID // v -> sources of stores `*v = s`

	active   []nodeID   // current representatives, ascending
	preds    [][]nodeID // reverse of succ minus newSucc, rebuilt per round
	predsNew [][]nodeID // reverse of newSucc
}

func newWaveSolver(s *solver) *waveSolver {
	n := len(s.varName)
	w := &waveSolver{
		s:         s,
		uf:        newUnionFind(n),
		pts:       make([]*bitset.Set, n),
		done:      make([]*bitset.Set, n),
		dif:       make([]*bitset.Set, n),
		derefDone: make([]*bitset.Set, n),
		clean:     make([]bool, n),
		emptyDif:  bitset.New(),
		succ:      make([][]nodeID, n),
		newSucc:   make([][]nodeID, n),
		loads:     make([][]nodeID, n),
		stores:    make([][]nodeID, n),
	}
	// Nothing is merged before the first round's collapse, so every node
	// is its own representative and the constraints index the lists as
	// collected.
	for v := 0; v < n; v++ {
		w.pts[v] = bitset.New()
		w.done[v] = bitset.New()
		w.derefDone[v] = bitset.New()
	}
	for _, b := range s.base {
		w.pts[b[0]].Set(b[1])
	}
	for _, e := range s.copyC {
		w.succ[e[0]] = append(w.succ[e[0]], e[1])
	}
	for _, e := range s.loadC {
		w.loads[e[0]] = append(w.loads[e[0]], e[1])
	}
	for _, e := range s.storeC {
		w.stores[e[0]] = append(w.stores[e[0]], e[1])
	}
	for v := 0; v < n; v++ {
		w.succ[v] = sortDedup(w.succ[v])
		w.loads[v] = sortDedup(w.loads[v])
		w.stores[v] = sortDedup(w.stores[v])
	}
	return w
}

// solve runs rounds to the least fixpoint. After a full wave every
// representative's done set equals its points-to set and the deref phase
// has expanded every delta, so the system is at fixpoint exactly when no
// round added a truly-new edge.
func (w *waveSolver) solve() {
	for {
		w.rounds++
		w.collapse()
		levels := w.schedule()
		w.wave(levels)
		for _, v := range w.active {
			w.newSucc[v] = nil
		}
		if !w.addDerefEdges() {
			return
		}
	}
}

// activeReps returns the current representatives in ascending ID order.
func (w *waveSolver) activeReps() []nodeID { return w.active }

// collapse merges every copy SCC into its minimum member: points-to sets
// union, progress markers (done, derefDone) intersect — an intersection
// under-approximates what every merged member already handled, so anything
// uncertain is simply re-propagated, never skipped.
func (w *waveSolver) collapse() {
	sccs := tarjanSCC(w.succ)
	merged := false
	for _, scc := range sccs {
		if len(scc) <= 1 {
			continue
		}
		merged = true
		r := scc[0]
		for _, v := range scc[1:] {
			r = w.uf.union(r, v)
		}
		for _, v := range scc {
			if v == r {
				continue
			}
			w.pts[r].Or(w.pts[v])
			w.done[r].And(w.done[v])
			w.derefDone[r].And(w.derefDone[v])
			w.clean[r] = false
			w.succ[r] = append(w.succ[r], w.succ[v]...)
			w.newSucc[r] = append(w.newSucc[r], w.newSucc[v]...)
			w.loads[r] = append(w.loads[r], w.loads[v]...)
			w.stores[r] = append(w.stores[r], w.stores[v]...)
			w.pts[v], w.done[v], w.dif[v], w.derefDone[v] = nil, nil, nil, nil
			w.succ[v], w.newSucc[v], w.loads[v], w.stores[v] = nil, nil, nil, nil
		}
	}
	if w.active != nil && !merged {
		return // lists are already canonical
	}
	w.active = w.active[:0]
	for v := 0; v < len(w.succ); v++ {
		id := nodeID(v)
		if w.uf.find(id) != id {
			continue
		}
		w.active = append(w.active, id)
		if merged {
			w.succ[v] = w.canon(w.succ[v], id, true)
			w.newSucc[v] = w.canon(w.newSucc[v], id, true)
			// A load `v = *v` stays meaningful, so deref targets keep
			// self-references.
			w.loads[v] = w.canon(w.loads[v], id, false)
			w.stores[v] = w.canon(w.stores[v], id, false)
		}
	}
}

// canon rewrites a target list through the union-find, sorts, dedups, and
// (for copy edges) drops self-loops.
func (w *waveSolver) canon(list []nodeID, self nodeID, dropSelf bool) []nodeID {
	out := list[:0]
	for _, t := range list {
		t = w.uf.find(t)
		if dropSelf && t == self {
			continue
		}
		out = append(out, t)
	}
	return sortDedup(out)
}

func sortDedup(list []nodeID) []nodeID {
	if len(list) < 2 {
		return list
	}
	slices.Sort(list)
	out := list[:1]
	for _, t := range list[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// schedule levelizes the condensed DAG: level(v) = longest path from a
// root, so every edge crosses to a strictly higher level. It also builds
// the reverse edge lists the pull-based wave reads. Panics if a cycle
// survived collapse — that would be an engine bug, not an input error.
func (w *waveSolver) schedule() [][]nodeID {
	n := len(w.succ)
	if w.preds == nil {
		w.preds = make([][]nodeID, n)
		w.predsNew = make([][]nodeID, n)
	}
	for _, v := range w.active {
		w.preds[v] = w.preds[v][:0]
		w.predsNew[v] = w.predsNew[v][:0]
	}
	indeg := make([]int, n)
	for _, v := range w.active {
		for _, t := range w.succ[v] {
			indeg[t]++
		}
		// Split successors into established and new: newSucc is a sorted
		// subset of succ, so one linear co-walk classifies every edge.
		j := 0
		nw := w.newSucc[v]
		for _, t := range w.succ[v] {
			if j < len(nw) && nw[j] == t {
				w.predsNew[t] = append(w.predsNew[t], v)
				j++
			} else {
				w.preds[t] = append(w.preds[t], v)
			}
		}
	}
	level := make([]int, n)
	queue := make([]nodeID, 0, len(w.active))
	for _, v := range w.active {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed, maxLevel := 0, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, t := range w.succ[v] {
			if level[v]+1 > level[t] {
				level[t] = level[v] + 1
				if level[t] > maxLevel {
					maxLevel = level[t]
				}
			}
			if indeg[t]--; indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if processed != len(w.active) {
		panic("anders: copy cycle survived collapse")
	}
	levels := make([][]nodeID, maxLevel+1)
	for _, v := range w.active {
		levels[level[v]] = append(levels[level[v]], v)
	}
	return levels
}

// wave runs one propagation pass over the levelized DAG. Each node pulls
// its predecessors' deltas (full sets over new edges), then publishes its
// own delta for the next level.
func (w *waveSolver) wave(levels [][]nodeID) {
	for _, lvl := range levels {
		for _, v := range lvl {
			changed := false
			for _, u := range w.predsNew[v] {
				if w.pts[v].OrChanged(w.pts[u]) {
					changed = true
				}
			}
			for _, u := range w.preds[v] {
				if w.pts[v].OrChanged(w.dif[u]) {
					changed = true
				}
			}
			if !changed && w.clean[v] {
				// done == pts held on entry and no pull added a bit, so
				// the delta is empty — skip the Copy/AndNot entirely.
				w.dif[v] = w.emptyDif
				continue
			}
			d := w.pts[v].Copy()
			d.AndNot(w.done[v])
			w.dif[v] = d
			if !d.Empty() {
				w.done[v].Or(d)
			}
			w.clean[v] = true
		}
	}
}

// addDerefEdges expands loads and stores over each pointer's points-to
// delta into copy edges and reports whether any edge was truly new.
func (w *waveSolver) addDerefEdges() bool {
	// Resolve every heap cell's representative once per round instead of
	// once per delta member.
	repObjVar := make([]nodeID, len(w.s.objVar))
	for o, ov := range w.s.objVar {
		repObjVar[o] = w.uf.find(ov)
	}

	// Candidate volume is delta × fanout — the hot loop of the whole
	// solver. Accumulating targets in one set per source node dedups
	// eagerly instead of sorting the full duplicate-laden edge list, so
	// the round costs set-insertions rather than an O(E log E) sort.
	targets := make([]*bitset.Set, len(w.pts))
	var touched []nodeID
	for _, v := range w.active {
		loads, stores := w.loads[v], w.stores[v]
		if len(loads) == 0 && len(stores) == 0 {
			continue
		}
		delta := w.pts[v].Copy()
		delta.AndNot(w.derefDone[v])
		if delta.Empty() {
			continue
		}
		delta.ForEach(func(o int) bool {
			ov := repObjVar[o]
			for _, d := range loads {
				if ov != d {
					t := targets[ov]
					if t == nil {
						t = bitset.New()
						targets[ov] = t
						touched = append(touched, ov)
					}
					t.Set(int(d))
				}
			}
			for _, src := range stores {
				if src != ov {
					t := targets[src]
					if t == nil {
						t = bitset.New()
						targets[src] = t
						touched = append(touched, src)
					}
					t.Set(int(ov))
				}
			}
			return true
		})
		w.derefDone[v].Or(delta)
	}

	// Per-source results are independent, so the iteration order of
	// touched does not affect the outcome: news is emitted ascending by
	// ForEach and merged into the already-sorted successor list.
	added := false
	for _, u := range touched {
		su := w.succ[u]
		var news []nodeID
		k := 0
		targets[u].ForEach(func(vi int) bool {
			v := nodeID(vi)
			for k < len(su) && su[k] < v {
				k++
			}
			if k < len(su) && su[k] == v {
				return true
			}
			news = append(news, v)
			return true
		})
		if len(news) > 0 {
			added = true
			w.succ[u] = mergeSorted(su, news)
			w.newSucc[u] = news
		}
	}
	return added
}

// mergeSorted merges two sorted disjoint lists into a fresh sorted list.
func mergeSorted(a, b []nodeID) []nodeID {
	out := make([]nodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// unionFind tracks merged solver nodes. The representative of a class is
// always its minimum member ID, so merge results are independent of merge
// order — part of the engine's determinism guarantee.
type unionFind struct {
	parent []nodeID
	nreps  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]nodeID, n), nreps: n}
	for i := range uf.parent {
		uf.parent[i] = nodeID(i)
	}
	return uf
}

func (u *unionFind) find(v nodeID) nodeID {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]] // path halving
		v = u.parent[v]
	}
	return v
}

// union merges the classes of a and b and returns the representative (the
// smaller of the two class minima).
func (u *unionFind) union(a, b nodeID) nodeID {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.nreps--
	return ra
}

// reps returns the number of equivalence classes.
func (u *unionFind) reps() int { return u.nreps }

// tarjanSCC computes the strongly connected components of the graph on
// nodes [0, len(succs)) with the given successor lists, iteratively (solver
// graphs contain copy chains far deeper than the goroutine stack guard).
// SCCs are emitted successors-first: iterating the result backwards visits
// every component before any of its successors, i.e. predecessors-first.
func tarjanSCC(succs [][]nodeID) [][]nodeID {
	n := len(succs)
	index := make([]int, n) // 0 = unvisited, else order+1
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	stack := make([]nodeID, 0, n)
	var sccs [][]nodeID

	type frame struct {
		v nodeID
		i int // next successor to examine
	}
	var frames []frame
	next := 1
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, nodeID(root))
		onStack[root] = true
		frames = append(frames[:0], frame{nodeID(root), 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.i < len(succs[v]) {
				w := succs[v][f.i]
				f.i++
				if index[w] == 0 {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []nodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
