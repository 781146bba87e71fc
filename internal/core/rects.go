package core

import (
	"slices"
	"sort"
)

// Rect is a rectangle label <X1, X2, Y1, Y2> (§3.4.1): the cross product of
// two disjoint interval labels, with X1 ≤ X2 < Y1 ≤ Y2 by convention.
type Rect struct {
	X1, X2, Y1, Y2 int
	// Case1 marks rectangles whose [Y1,Y2] side is a whole PES interval;
	// those additionally encode points-to facts (Y1 is the pre-order
	// timestamp of an origin node).
	Case1 bool
}

// IsPoint reports whether the rectangle degenerates to a single point.
func (r Rect) IsPoint() bool { return r.X1 == r.X2 && r.Y1 == r.Y2 }

// IsVLine reports whether the rectangle degenerates to a vertical line
// (single column, multiple rows).
func (r Rect) IsVLine() bool { return r.X1 == r.X2 && r.Y1 != r.Y2 }

// IsHLine reports whether the rectangle degenerates to a horizontal line.
func (r Rect) IsHLine() bool { return r.X1 != r.X2 && r.Y1 == r.Y2 }

// generateRectangles implements §3.4.1: visiting origins in object order,
// pair the ξ-reachable subtree intervals of each origin's cross edges with
// each other (Case-2) and with the origin's PES interval (Case-1), and
// discard any rectangle whose lower-left corner is covered by a previously
// retained rectangle. By Theorem 2 a covered corner implies full enclosure,
// so the discard is lossless.
//
// The paper finds the covering rectangle with a segment tree whose nodes
// hold balanced trees sorted by Y1. Theorem 2 also makes retained
// rectangles pairwise disjoint, so the Y ranges of those crossing any one
// column are disjoint too: keeping each column's ranges sorted by lo, the
// corner (X1, Y1) is covered iff the floor entry of column X1 contains Y1,
// the same search queries run on a decoded index (entryCovering).
func (t *Trie) generateRectangles(prune bool) {
	if t.NumGroups == 0 {
		return
	}
	var cols [][]listEntry
	if prune {
		cols = make([][]listEntry, t.NumGroups)
	}
	var cands []Rect
	for idx := range t.origins {
		cands = t.originCandidates(idx, cands[:0])
		for _, r := range cands {
			t.Candidates++
			if prune {
				if _, covered := entryCovering(cols[r.X1], int32(r.Y1)); covered {
					t.Pruned++
					continue
				}
				e := listEntry{lo: int32(r.Y1), hi: int32(r.Y2)}
				for x := r.X1; x <= r.X2; x++ {
					col := cols[x]
					i := sort.Search(len(col), func(i int) bool { return col[i].lo > e.lo })
					cols[x] = slices.Insert(col, i, e)
				}
			}
			t.rects = append(t.rects, r)
		}
	}
}

// originCandidates appends the rectangle candidates of one origin to out
// in the canonical order: Case-1 per cross edge first, then Case-2 pairs in
// (i, j) order.
func (t *Trie) originCandidates(idx int, out []Rect) []Rect {
	edges := t.cross[idx]
	if len(edges) == 0 {
		return out
	}
	org := t.origins[idx]
	pes := interval{org.pre, org.end}
	subs := make([]interval, len(edges))
	for i, e := range edges {
		subs[i] = subtreeInterval(e)
	}
	add := func(a, b interval, case1 bool) {
		// Canonical orientation: smaller timestamps on the X side. The
		// construction already guarantees a and b are disjoint, and that
		// PES sides are the larger (targets of cross edges were created
		// before the current origin).
		if a.lo > b.lo {
			a, b = b, a
		}
		out = append(out, Rect{X1: a.lo, X2: a.hi, Y1: b.lo, Y2: b.hi, Case1: case1})
	}
	// Case-1: each cross-edge subtree against the PES interval. These
	// rectangles carry the points-to facts (Y1 is the origin's timestamp)
	// and are provably never enclosed, but they still enter the column
	// ranges so later Case-2 duplicates are pruned.
	for _, s := range subs {
		add(s, pes, true)
	}
	// Case-2: cross-edge subtrees pairwise. Two subtrees inside the same
	// PES form internal pairs (answered by PES identifier comparison,
	// §3.2), so only cross-PES pairs need rectangles — this is why
	// Figure 4 has no <1,1,3,3> rectangle for p3/p1.
	for i := 0; i < len(subs); i++ {
		for j := i + 1; j < len(subs); j++ {
			if edges[i].target.pes == edges[j].target.pes {
				continue
			}
			add(subs[i], subs[j], false)
		}
	}
	return out
}
