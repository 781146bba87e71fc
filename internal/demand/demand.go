// Package demand implements the demand-driven baseline of §7.1.1: queries
// answered directly from the points-to matrix with no precomputed alias
// information. IsAlias(p, q) intersects the points-to sets of p and q;
// ListAliases(p) runs IsAlias against every other base pointer, caching the
// result per pointer-equivalence class exactly as the paper describes ("we
// cache the querying result in cache(p); next time we query ListAliases(p')
// where p' is an equivalent pointer to p, we directly use the cached
// result").
//
// The rows are GCC-style linked bitmaps (internal/bitmap), the structure
// the paper measures, whatever set type the rest of the pipeline uses.
package demand

import (
	"pestrie/internal/bitmap"
	"pestrie/internal/matrix"
)

// Oracle answers pointer queries on demand from a points-to matrix.
type Oracle struct {
	rows       []*bitmap.Sparse // points-to set of every pointer
	pmt        []*bitmap.Sparse // computed lazily for ListPointedBy
	numObjects int

	// ListAliases cache, keyed by points-to set content.
	cache map[uint64][]cacheEntry
}

type cacheEntry struct {
	row     *bitmap.Sparse
	aliases []int
}

// New returns a demand-driven oracle over pm. It copies pm's rows into
// linked bitmaps, so pm may change afterwards without affecting answers.
func New(pm *matrix.PointsTo) *Oracle {
	rows := make([]*bitmap.Sparse, pm.NumPointers)
	for p := range rows {
		rows[p] = bitmap.FromSlice(pm.Row(p).Members())
	}
	return &Oracle{rows: rows, numObjects: pm.NumObjects, cache: make(map[uint64][]cacheEntry)}
}

// row returns p's points-to set, or nil (the empty set to Intersects) when
// p is out of range.
func (d *Oracle) row(p int) *bitmap.Sparse {
	if p < 0 || p >= len(d.rows) {
		return nil
	}
	return d.rows[p]
}

// IsAlias intersects the points-to sets of p and q.
func (d *Oracle) IsAlias(p, q int) bool {
	return d.row(p).Intersects(d.row(q))
}

// ListAliases enumerates all pointers q ≠ p with IsAlias(p, q), consulting
// the equivalence cache first.
func (d *Oracle) ListAliases(p int) []int {
	row := d.row(p)
	if row == nil || row.Empty() {
		return nil
	}
	h := row.Hash()
	for _, e := range d.cache[h] {
		if e.row.Equal(row) {
			return filterOut(e.aliases, p)
		}
	}
	var aliases []int // all pointers aliased to this class, self included
	for q, other := range d.rows {
		if row.Intersects(other) {
			aliases = append(aliases, q)
		}
	}
	d.cache[h] = append(d.cache[h], cacheEntry{row: row, aliases: aliases})
	return filterOut(aliases, p)
}

func filterOut(xs []int, p int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != p {
			out = append(out, x)
		}
	}
	return out
}

// ListPointsTo returns the points-to set of p.
func (d *Oracle) ListPointsTo(p int) []int {
	row := d.row(p)
	if row == nil || row.Empty() {
		return nil
	}
	return row.Members()
}

// ListPointedBy returns the pointers pointing to o, computing the transpose
// on first use (a demand-driven client pays this once).
func (d *Oracle) ListPointedBy(o int) []int {
	if o < 0 || o >= d.numObjects {
		return nil
	}
	if d.pmt == nil {
		d.pmt = bitmap.Transpose(d.rows, d.numObjects)
	}
	row := d.pmt[o]
	if row.Empty() {
		return nil
	}
	return row.Members()
}

// AliasPairs enumerates, via repeated IsAlias, all unordered conflicting
// pairs among the given base pointers — the race-detector workload of
// §7.1.1 ("enumerates all pairs of base pointers and uses the IsAlias query
// to determine if they have an access conflict"). The result counts pairs
// rather than materializing them, as a detector would stream them.
func (d *Oracle) AliasPairs(base []int) int {
	pairs := 0
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			if d.IsAlias(base[i], base[j]) {
				pairs++
			}
		}
	}
	return pairs
}

// AliasPairsViaList is the second §7.1.1 method: use ListAliases on each
// base pointer and count conflicting base pairs. It returns the same count
// as AliasPairs.
func (d *Oracle) AliasPairsViaList(base []int) int {
	inBase := make(map[int]bool, len(base))
	for _, p := range base {
		inBase[p] = true
	}
	pairs := 0
	for _, p := range base {
		for _, q := range d.ListAliases(p) {
			if inBase[q] && q > p {
				pairs++
			}
		}
	}
	return pairs
}
