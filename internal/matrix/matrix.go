// Package matrix implements the normalized points-to representation the
// paper builds everything on (§2): a binary points-to matrix PM where
// PM[p][o] = 1 iff pointer p may point to object o, its transpose (the
// pointed-by matrix PMT), the alias matrix AM = PM × PMᵀ, and the two
// empirical characteristics the Pestrie encoding exploits — equivalence
// classes (§2.1) and hub degrees (§2.2).
package matrix

import (
	"fmt"
	"math"
	"sort"

	"pestrie/internal/bitset"
)

// PointsTo is a points-to matrix over NumPointers pointers and NumObjects
// objects. Rows index pointers; a row's set members are object IDs.
type PointsTo struct {
	NumPointers int
	NumObjects  int
	rows        []*bitset.Set
}

// New returns an empty points-to matrix of the given dimensions.
func New(pointers, objects int) *PointsTo {
	if pointers < 0 || objects < 0 {
		panic("matrix: negative dimension")
	}
	return &PointsTo{
		NumPointers: pointers,
		NumObjects:  objects,
		rows:        make([]*bitset.Set, pointers),
	}
}

// Add records that pointer p may point to object o.
func (pm *PointsTo) Add(p, o int) {
	if p < 0 || p >= pm.NumPointers {
		panic(fmt.Sprintf("matrix: pointer %d out of range [0,%d)", p, pm.NumPointers))
	}
	if o < 0 || o >= pm.NumObjects {
		panic(fmt.Sprintf("matrix: object %d out of range [0,%d)", o, pm.NumObjects))
	}
	if pm.rows[p] == nil {
		pm.rows[p] = bitset.New()
	}
	pm.rows[p].Set(o)
}

// Remove erases the fact that pointer p may point to object o. Removing an
// absent fact is a no-op, as is an out-of-range pointer.
func (pm *PointsTo) Remove(p, o int) {
	if p < 0 || p >= pm.NumPointers || pm.rows[p] == nil {
		return
	}
	pm.rows[p].Clear(o)
}

// Has reports whether pointer p may point to object o.
func (pm *PointsTo) Has(p, o int) bool {
	if p < 0 || p >= pm.NumPointers || pm.rows[p] == nil {
		return false
	}
	return pm.rows[p].Test(o)
}

var emptyRow = bitset.New()

// Row returns the points-to set of pointer p. The returned set must not be
// mutated; it is never nil.
func (pm *PointsTo) Row(p int) *bitset.Set {
	if p < 0 || p >= pm.NumPointers || pm.rows[p] == nil {
		return emptyRow
	}
	return pm.rows[p]
}

// SetRow installs row as the points-to set of pointer p, taking ownership.
func (pm *PointsTo) SetRow(p int, row *bitset.Set) {
	if p < 0 || p >= pm.NumPointers {
		panic(fmt.Sprintf("matrix: pointer %d out of range [0,%d)", p, pm.NumPointers))
	}
	pm.rows[p] = row
}

// Edges returns the total number of points-to facts (set bits).
func (pm *PointsTo) Edges() int {
	n := 0
	for _, r := range pm.rows {
		if r != nil {
			n += r.Count()
		}
	}
	return n
}

// Clone returns a deep copy of the matrix.
func (pm *PointsTo) Clone() *PointsTo {
	out := New(pm.NumPointers, pm.NumObjects)
	for p, r := range pm.rows {
		if r != nil && !r.Empty() {
			out.rows[p] = r.Copy()
		}
	}
	return out
}

// Grown returns a deep copy of the matrix widened to the given dimensions.
// New pointers start with empty points-to sets; existing facts carry over.
// It panics if either dimension shrinks — delta segments only ever grow the
// pointer/object universe (IDs are stable across analysis cycles, §6.2).
func (pm *PointsTo) Grown(pointers, objects int) *PointsTo {
	if pointers < pm.NumPointers || objects < pm.NumObjects {
		panic(fmt.Sprintf("matrix: Grown(%d, %d) would shrink %d×%d",
			pointers, objects, pm.NumPointers, pm.NumObjects))
	}
	out := New(pointers, objects)
	for p, r := range pm.rows {
		if r != nil && !r.Empty() {
			out.rows[p] = r.Copy()
		}
	}
	return out
}

// Transpose computes the pointed-by matrix PMT: rows index objects, and the
// members of row o are the pointers that may point to o.
func (pm *PointsTo) Transpose() *PointsTo {
	out := New(pm.NumObjects, pm.NumPointers)
	for p, r := range pm.rows {
		if r == nil {
			continue
		}
		r.ForEach(func(o int) bool {
			out.Add(o, p)
			return true
		})
	}
	return out
}

// AliasMatrix computes AM = PM × PMᵀ: AM[p][q] = 1 iff p and q share at
// least one pointed-to object. The diagonal is set only for pointers with a
// non-empty points-to set. As in §2.1, the alias set of p is the union of
// the PMT rows of the objects p points to, which is fast when PM is sparse.
func (pm *PointsTo) AliasMatrix() *PointsTo {
	pmt := pm.Transpose()
	am := New(pm.NumPointers, pm.NumPointers)
	for p, r := range pm.rows {
		if r == nil || r.Empty() {
			continue
		}
		row := bitset.New()
		r.ForEach(func(o int) bool {
			row.Or(pmt.Row(o))
			return true
		})
		am.rows[p] = row
	}
	return am
}

// HubDegrees computes the hub degree of every object per Definition 1:
//
//	H_o = sqrt( Σ_{p ∈ PMT[o]} |PM[p]|² )
//
// which is the two-round HITS hub score over the points-to bipartite graph.
// pmt is pm's transpose, which callers that need it for more than the
// degrees compute once and pass in.
func (pm *PointsTo) HubDegrees(pmt *PointsTo) []float64 {
	sizes := make([]int, pm.NumPointers)
	for p, r := range pm.rows {
		if r != nil {
			sizes[p] = r.Count()
		}
	}
	out := make([]float64, pm.NumObjects)
	for o := range out {
		var sum float64
		pmt.Row(o).ForEach(func(p int) bool {
			s := float64(sizes[p])
			sum += s * s
			return true
		})
		out[o] = math.Sqrt(sum)
	}
	return out
}

// PointedByCounts returns |PMT[o]| for every object — the naïve hub metric
// Definition 1 argues against (it cannot break ties between objects pointed
// to by the same number of pointers). Kept for the ablation benchmark.
func (pm *PointsTo) PointedByCounts() []int {
	out := make([]int, pm.NumObjects)
	for _, r := range pm.rows {
		if r == nil {
			continue
		}
		r.ForEach(func(o int) bool {
			out[o]++
			return true
		})
	}
	return out
}

// HubOrder returns the objects sorted by descending hub degree — the object
// order the heuristic of §5.2 uses to construct Pestrie. Ties break by
// object ID for determinism. pmt is pm's transpose, as for HubDegrees.
func (pm *PointsTo) HubOrder(pmt *PointsTo) []int {
	return OrderByDegree(pm.HubDegrees(pmt))
}

// OrderByDegree sorts object IDs by descending degree, breaking ties by ID.
func OrderByDegree(deg []float64) []int {
	order := make([]int, len(deg))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := deg[order[a]], deg[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// EquivalenceClasses groups pointers with identical points-to sets (§2.1).
// It returns, for each pointer, the ID of its class, plus the number of
// classes. Pointers with empty points-to sets share class 0 if any exist.
func (pm *PointsTo) EquivalenceClasses() (classOf []int, numClasses int) {
	return classesOf(pm.rows, pm.NumPointers)
}

// ObjectEquivalenceClasses groups objects pointed to by identical pointer
// sets (§2.1: "two objects are considered equivalent if they are pointed by
// the same set of pointers"). These are the EquivalenceClasses of the
// transpose, which a caller that already holds it can ask directly.
func (pm *PointsTo) ObjectEquivalenceClasses() (classOf []int, numClasses int) {
	return pm.Transpose().EquivalenceClasses()
}

// classesOf numbers rows by first occurrence of their content: rows are
// bucketed by hash, and a row joins the class of the first equal
// representative in its bucket.
func classesOf(rows []*bitset.Set, n int) ([]int, int) {
	classOf := make([]int, n)
	buckets := make(map[uint64][]int) // hash -> representative row indices
	next := 0
	for i := 0; i < n; i++ {
		row := rows[i]
		if row == nil {
			row = emptyRow
		}
		h := row.Hash()
		found := -1
		for _, rep := range buckets[h] {
			repRow := rows[rep]
			if repRow == nil {
				repRow = emptyRow
			}
			if repRow.Equal(row) {
				found = classOf[rep]
				break
			}
		}
		if found < 0 {
			found = next
			next++
			buckets[h] = append(buckets[h], i)
		}
		classOf[i] = found
	}
	return classOf, next
}

// Equal reports whether two matrices have the same dimensions and facts.
func (pm *PointsTo) Equal(other *PointsTo) bool {
	if pm.NumPointers != other.NumPointers || pm.NumObjects != other.NumObjects {
		return false
	}
	for p := 0; p < pm.NumPointers; p++ {
		if !pm.Row(p).Equal(other.Row(p)) {
			return false
		}
	}
	return true
}
