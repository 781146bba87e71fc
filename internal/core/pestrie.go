// Package core implements the Pestrie persistence scheme — the primary
// contribution of "Persistent Pointer Information" (PLDI 2014).
//
// A Pestrie is built from a binary points-to matrix PM in four stages:
//
//  1. Partitioning (§3.1): pointers are partitioned into groups (equivalent
//     sets, ES) by processing the pointed-by matrix PMT one object row at a
//     time, in descending hub-degree order (§5.2). Groups extracted from the
//     same origin form a tree (a partially equivalent set, PES); cross edges
//     connect an object's origin to groups in other PESs whose members also
//     point to that object.
//  2. ξ-labelling (§3.3): tree edges are numbered in creation order and each
//     cross edge records the number of tree edges its target had when the
//     cross edge was created; points-to facts are then exactly the
//     ξ-reachable (origin, pointer) pairs (Theorem 1).
//  3. Interval labelling and rectangle generation (§3.4): a DFS that walks
//     tree edges in reverse creation order turns every ξ-reachable region
//     into a contiguous timestamp interval; per origin, the cross-edge
//     subtree intervals and the PES interval are paired into rectangle
//     labels, discarding rectangles enclosed by earlier ones (Theorem 2)
//     with one floor search over the sorted ranges already crossing the
//     candidate's column.
//  4. Persistence (Fig. 5): timestamps plus shape-split rectangles (points,
//     vertical/horizontal lines, full rectangles) are written to a compact
//     varint-encoded file, which Load turns back into an Index answering
//     IsAlias in O(log n) and the List* queries in output-linear time (§4).
package core

import "pestrie/internal/matrix"

// Options configure Pestrie construction.
type Options struct {
	// Order is the object order used for partitioning. If nil, the
	// hub-degree order of §5.2 is used. It must be a permutation of
	// [0, NumObjects).
	Order []int

	// DisablePruning turns off the Theorem-2 enclosure check, keeping
	// every generated rectangle. Only useful for the ablation benchmarks;
	// query results are unaffected (redundant rectangles are, by
	// definition, covered by retained ones).
	DisablePruning bool

	// MergeEquivalentObjects places objects with identical pointed-by
	// sets into a single origin node instead of one origin per object.
	// This is an extension beyond the paper (its construction always
	// creates one origin per object); it is exercised by an ablation
	// benchmark and is off by default.
	MergeEquivalentObjects bool
}

// group is a Pestrie node: an equivalent set (ES) of pointers, plus the
// resident objects if the node is an origin.
type group struct {
	id       int
	objects  []int // non-empty iff this node is an origin
	pointers []int // final resident pointers
	parent   *group
	pes      *group   // origin (root) of the PES this node belongs to
	children []*group // tree edges; the k-th child is the tree edge labelled k

	// Transient construction state.
	mark    int
	pending []int

	// DFS interval label [pre, end] (§3.4.1).
	pre, end int
}

func (g *group) isOrigin() bool { return len(g.objects) > 0 }

// crossEdge records that every pointer ξ-reachable from it points to the
// object(s) of the origin it hangs off.
type crossEdge struct {
	target *group
	xi     int // tree-edge count of target at creation time (§3.3)
}

// Trie is a constructed Pestrie: the partition forest, its interval labels,
// and the generated rectangle labels. Obtain one with Build, then either
// persist it with WriteTo or query it directly through Index.
type Trie struct {
	NumPointers int
	NumObjects  int
	NumGroups   int

	groups  []*group      // in creation order; origins interleaved
	origins []*group      // in object order (merged duplicates skipped)
	cross   [][]crossEdge // indexed by origin position in origins

	pointerTS []int // pre-order timestamp per pointer; -1 if unplaced
	objectTS  []int // pre-order timestamp per object

	rects []Rect // retained rectangle labels, generation order

	// Stats for the evaluation harness.
	TreeEdges    int
	CrossEdges   int
	Candidates   int // rectangles considered before pruning
	Pruned       int // rectangles discarded by the Theorem-2 check
	InternalOnly int // pointers never involved in any cross edge
}

// Build constructs a Pestrie for pm. A nil opts selects the defaults
// (hub-degree object order, pruning on, no object merging). Construction
// is one serial pass. It reads the pointed-by matrix PMT twice, for the
// hub degrees and for the partition, so PMT is computed once and shared.
func Build(pm *matrix.PointsTo, opts *Options) *Trie {
	if opts == nil {
		opts = &Options{}
	}
	pmt := pm.Transpose()
	order := opts.Order
	if order == nil {
		order = pm.HubOrder(pmt)
	}
	validateOrder(order, pm.NumObjects)

	t := &Trie{
		NumPointers: pm.NumPointers,
		NumObjects:  pm.NumObjects,
	}
	t.partition(pmt, order, opts.MergeEquivalentObjects)
	t.assignTimestamps()
	t.generateRectangles(!opts.DisablePruning)
	return t
}

func validateOrder(order []int, m int) {
	if len(order) != m {
		panic("core: object order has wrong length")
	}
	seen := make([]bool, m)
	for _, o := range order {
		if o < 0 || o >= m || seen[o] {
			panic("core: object order is not a permutation")
		}
		seen[o] = true
	}
}

// Rects returns the retained rectangle labels. The slice must not be
// modified.
func (t *Trie) Rects() []Rect { return t.rects }

// PointerTimestamps returns the per-pointer pre-order timestamps (-1 for
// pointers with empty points-to sets). The slice must not be modified.
func (t *Trie) PointerTimestamps() []int { return t.pointerTS }

// ObjectTimestamps returns the per-object pre-order timestamps. The slice
// must not be modified.
func (t *Trie) ObjectTimestamps() []int { return t.objectTS }
