package core

import "pestrie/internal/matrix"

// partition runs the §3.1 construction: process the pointed-by matrix pmt
// one object row at a time in the given order, splitting pointer groups.
//
// Invariants established here and relied on everywhere else:
//   - every non-origin group was extracted from exactly one parent, so each
//     PES is a tree rooted at its origin;
//   - cross edges only ever target non-origin groups or pre-existing groups
//     that would have been emptied (which are never origins, because an
//     origin always retains its object);
//   - group membership only shrinks after creation, so a cross edge with
//     ξ-value ω covers precisely the target plus the subtrees of its tree
//     edges labelled ≥ ω (§3.3).
func (t *Trie) partition(pmt *matrix.PointsTo, order []int, mergeObjects bool) {
	groupOf := make([]*group, t.NumPointers)
	t.objectTS = make([]int, t.NumObjects) // filled by assignTimestamps
	originOf := make([]*group, t.NumObjects)

	// With object merging enabled, identical pointed-by rows share one
	// origin. The representative is the first object of the class in the
	// processing order. The pointer-side classes of the transpose are
	// exactly the object classes of pm, so pmt serves for those too.
	var objClass []int
	repOf := map[int]int{} // class -> representative object
	if mergeObjects {
		objClass, _ = pmt.EquivalenceClasses()
	}

	newGroup := func() *group {
		g := &group{id: len(t.groups), mark: -1}
		t.groups = append(t.groups, g)
		return g
	}

	for step, o := range order {
		if mergeObjects {
			cls := objClass[o]
			if rep, ok := repOf[cls]; ok {
				// Duplicate object: adopt the representative's origin.
				org := originOf[rep]
				org.objects = append(org.objects, o)
				originOf[o] = org
				continue
			}
			repOf[cls] = o
		}

		origin := newGroup()
		origin.objects = []int{o}
		origin.pes = origin
		originOf[o] = origin
		t.origins = append(t.origins, origin)
		t.cross = append(t.cross, nil)
		originIdx := len(t.origins) - 1

		// Bucket this row's pointers by their current group, preserving
		// first-touch order for determinism.
		var touched []*group
		pmt.Row(o).ForEach(func(p int) bool {
			g := groupOf[p]
			if g == nil {
				// Fresh pointer: joins the origin group.
				origin.pointers = append(origin.pointers, p)
				groupOf[p] = origin
				return true
			}
			if g.mark != step {
				g.mark = step
				g.pending = g.pending[:0]
				touched = append(touched, g)
			}
			g.pending = append(g.pending, p)
			return true
		})

		for _, g := range touched {
			if len(g.pending) == len(g.pointers) && !g.isOrigin() {
				// Extracting everything would empty the group (§3.1,
				// step 3): keep the members in place and connect the
				// cross edge directly, labelled with the current
				// tree-edge count so that only later extractions are
				// ξ-reachable through it.
				t.cross[originIdx] = append(t.cross[originIdx],
					crossEdge{target: g, xi: len(g.children)})
				t.CrossEdges++
				continue
			}
			// Proper subset (or an origin, which always keeps its
			// object): extract the pending pointers into a child group.
			ng := newGroup()
			ng.parent = g
			ng.pes = g.pes
			ng.pointers = append(ng.pointers, g.pending...)
			for _, p := range g.pending {
				groupOf[p] = ng
			}
			g.pointers = removeAll(g.pointers, g.pending)
			g.children = append(g.children, ng)
			t.TreeEdges++
			t.cross[originIdx] = append(t.cross[originIdx],
				crossEdge{target: ng, xi: 0})
			t.CrossEdges++
		}
	}
	t.NumGroups = len(t.groups)
	t.pointerTS = make([]int, t.NumPointers)
	for _, g := range t.groups {
		if g.parent == nil && len(g.children) == 0 && g.isOrigin() {
			t.InternalOnly += len(g.pointers)
		}
	}
}

// removeAll returns members with every element of sub removed, preserving
// order. sub is a subsequence of members (both originate from ordered row
// scans), which keeps this linear.
func removeAll(members, sub []int) []int {
	out := members[:0]
	j := 0
	for _, v := range members {
		if j < len(sub) && sub[j] == v {
			j++
			continue
		}
		out = append(out, v)
	}
	return out
}

// assignTimestamps performs the §3.4.1 DFS: PESs are visited in object
// order; within a non-origin node, tree edges are walked in *reverse*
// creation order so that the ξ-reachable region of any cross edge is a
// contiguous pre-order interval. Origins are free to use any order since a
// ξ-path never passes an origin (cross edges never target origins); we use
// forward order there, which reproduces the paper's Table 5 exactly.
func (t *Trie) assignTimestamps() {
	time := 0
	var dfs func(g *group)
	dfs = func(g *group) {
		g.pre = time
		time++
		if g.isOrigin() {
			for _, c := range g.children {
				dfs(c)
			}
		} else {
			for i := len(g.children) - 1; i >= 0; i-- {
				dfs(g.children[i])
			}
		}
		g.end = time - 1
	}
	for _, org := range t.origins {
		dfs(org)
	}

	for p := range t.pointerTS {
		t.pointerTS[p] = -1
	}
	for _, g := range t.groups {
		for _, p := range g.pointers {
			t.pointerTS[p] = g.pre
		}
		for _, o := range g.objects {
			t.objectTS[o] = g.pre
		}
	}
}

// interval is a closed timestamp interval.
type interval struct{ lo, hi int }

// subtreeInterval returns the interval covering exactly the nodes that are
// ξ-reachable through e: the target plus the subtrees of its tree edges
// labelled ≥ e.xi (§3.4.1 / Figure 3). If no tree edge qualifies, only the
// target node itself is reachable.
func subtreeInterval(e crossEdge) interval {
	g := e.target
	if e.xi >= len(g.children) {
		return interval{g.pre, g.pre}
	}
	z := g.children[e.xi]
	return interval{g.pre, z.end}
}
