package core

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Index is the in-memory query structure of §4, decoded from a persistent
// file (or built directly from a Trie). It answers the four queries of
// Table 1:
//
//	IsAlias       O(log n)  — PES identifier comparison, then a binary
//	                          search over the rectangles crossing column Ip
//	ListAliases   O(K)      — PES members plus the rectangle ranges on
//	                          column Ip
//	ListPointsTo  O(K)      — own origin objects plus Case-1 rectangles
//	ListPointedBy O(K)      — own PES pointers plus mirrored Case-1 ranges
//
// Every query array is a flat slice of fixed-width elements, which is what
// lets the PES2 format serve them zero-copy: a mapped .pes2 file *is* this
// struct, with each slice aliasing a validated section of the mapping (see
// filev2.go). Decoded PES1 files build the same slices on the heap.
type Index struct {
	NumPointers int
	NumObjects  int
	NumGroups   int

	pointerTS []int32 // timestamp per pointer (-1 unplaced)
	objectTS  []int32 // timestamp per object

	// Pointers grouped by timestamp, flattened so that any timestamp
	// interval [lo, hi] maps to the contiguous slice
	// ptrsFlat[startOfTS[lo]:startOfTS[hi+1]] — list queries expand
	// rectangle ranges with slice copies instead of per-timestamp scans.
	ptrsFlat  []int32
	startOfTS []int32 // length NumGroups+1

	// Objects grouped by timestamp in the same flattened layout: the
	// objects resident at ts are objsFlat[objStart[ts]:objStart[ts+1]].
	objsFlat []int32
	objStart []int32 // length NumGroups+1

	// originTS is the sorted list of distinct origin timestamps; PES k
	// occupies timestamps [originTS[k], pesEnd[k]]. pesOfTS materializes
	// the binary search of §4 step 1 into a direct lookup — PES
	// identifiers are recovered once at decode time anyway, so queries
	// get them in O(1).
	originTS []int32
	pesEnd   []int32
	pesOfTS  []int32

	// Column lists, flattened like ptrsFlat: column ts is
	// ents[entStart[ts]:entStart[ts+1]], holding, sorted by lo, one entry
	// per rectangle whose X side (or, for mirrored entries, Y side) covers
	// ts (§4, step 2). Ranges in a single column are pairwise disjoint
	// with Theorem-2 pruning on; with pruning off, surviving Case-1 ranges
	// can nest (see dedupColumn), which ListAliases handles by sweeping
	// ranges in ascending order and clipping overlap.
	ents     []listEntry
	entStart []int32 // length NumGroups+1

	rectCount int

	// Zero-copy state: when the slices above alias a caller-owned byte
	// region (a PES2 mapping or buffer), backing is its total size and
	// closer releases it. Both are zero for heap-decoded indexes.
	backing int64
	closer  func() error

	// text is the ID text table the Append methods copy answers from,
	// built by the first of them (or BuildIDText) under textOnce; nil
	// until then, so MemoryFootprint charges it only once it exists.
	textOnce sync.Once
	text     atomic.Pointer[idText]
}

type listEntry struct {
	lo, hi int32
	case1  bool
	mirror bool // true for the transposed orientation <Y1,Y2,X1,X2>
}

// listEntrySize is unsafe.Sizeof(listEntry{}): two int32 plus two bools,
// padded to int32 alignment. This is also the PES2 on-disk record size —
// the ents section of a mapped file is aliased directly as []listEntry —
// so TestListEntrySize additionally pins every field offset.
const listEntrySize = 12

// col returns the column list for timestamp ts.
func (ix *Index) col(ts int) []listEntry {
	return ix.ents[ix.entStart[ts]:ix.entStart[ts+1]]
}

// Mapped reports whether the index serves queries straight off a mapped
// PES2 file (or caller-owned buffer) instead of heap-decoded slices.
func (ix *Index) Mapped() bool { return ix.backing != 0 }

// Close releases the mapping backing a zero-copy index. It is a no-op for
// heap-decoded indexes and after the first call. The caller must guarantee
// no query is in flight: unmapping under a reader is a fault, not an error
// (internal/store's refcount pinning provides exactly this guarantee).
func (ix *Index) Close() error {
	c := ix.closer
	ix.closer = nil
	if c == nil {
		return nil
	}
	return c()
}

// Load reads a persistent file into an Index, dispatching on magic: PES1
// files (written by (*Trie).WriteTo) are decoded onto the heap, PES2 files
// (written by (*Index).WriteToV2) become a zero-copy view over the slurped
// image with no per-entry decode.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(v2Magic)); err == nil && string(magic) == v2Magic {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("pestrie: reading PES2 image: %w", err)
		}
		return LoadMapped(data, nil)
	}
	fc, err := readFile(br)
	if err != nil {
		return nil, err
	}
	return buildIndex(fc), nil
}

// Index builds the query structure directly, bypassing file serialization;
// the result is the index Load decodes from the trie's PES1 file.
func (t *Trie) Index() *Index {
	return buildIndex(&fileContents{
		numPointers: t.NumPointers,
		numObjects:  t.NumObjects,
		numGroups:   t.NumGroups,
		pointerTS:   t.pointerTS,
		objectTS:    t.objectTS,
		rects:       t.rects,
	})
}

// countingSortByTS groups IDs by their timestamp key with a counting sort,
// ascending ID within each key: IDs whose key is ts end up in
// flat[start[ts]:start[ts+1]]. Negative keys are skipped.
func countingSortByTS(keys []int, numTS int) (flat, start []int32) {
	start = make([]int32, numTS+1)
	placed := 0
	for _, ts := range keys {
		if ts >= 0 {
			start[ts+1]++
			placed++
		}
	}
	for ts := 0; ts < numTS; ts++ {
		start[ts+1] += start[ts]
	}
	flat = make([]int32, placed)
	fill := append([]int32(nil), start[:numTS]...)
	for id, ts := range keys {
		if ts >= 0 {
			flat[fill[ts]] = int32(id)
			fill[ts]++
		}
	}
	return flat, start
}

// buildIndex assembles the query structure from decoded file contents.
func buildIndex(fc *fileContents) *Index {
	numGroups := fc.numGroups
	ix := &Index{
		NumPointers: fc.numPointers,
		NumObjects:  fc.numObjects,
		NumGroups:   numGroups,
		pointerTS:   toInt32s(fc.pointerTS),
		objectTS:    toInt32s(fc.objectTS),
		rectCount:   len(fc.rects),
	}
	// Flatten pointers and objects by timestamp.
	ix.ptrsFlat, ix.startOfTS = countingSortByTS(fc.pointerTS, numGroups)
	ix.objsFlat, ix.objStart = countingSortByTS(fc.objectTS, numGroups)

	// Origin timestamps are exactly the timestamps holding objects; the
	// scan yields them already sorted. PES intervals tile [0, numGroups):
	// PES k ends right before PES k+1 starts.
	for ts := 0; ts < numGroups; ts++ {
		if ix.objStart[ts+1] > ix.objStart[ts] {
			ix.originTS = append(ix.originTS, int32(ts))
		}
	}
	ix.pesEnd = make([]int32, len(ix.originTS))
	ix.pesOfTS = make([]int32, numGroups)
	for k := range ix.originTS {
		if k+1 < len(ix.originTS) {
			ix.pesEnd[k] = ix.originTS[k+1] - 1
		} else {
			ix.pesEnd[k] = int32(numGroups - 1)
		}
		for ts := ix.originTS[k]; ts <= ix.pesEnd[k]; ts++ {
			ix.pesOfTS[ts] = int32(k)
		}
	}
	ix.ents, ix.entStart = buildColumns(fc.rects, numGroups)
	return ix
}

// buildColumns lays out the column lists in three passes over the
// rectangles. The first counts each column's entries (a rectangle adds one
// to every column of its X side and, mirrored, of its Y side), which sizes
// the flat ents array once. The second places every entry at its column's
// cursor. The third sorts each column in place and dedups it while packing
// the survivors leftwards, so a column never moves right and the packed
// layout is built inside the one array. compareEntries is a total order,
// so the sorted columns do not depend on the placement order.
func buildColumns(rects []Rect, numGroups int) (ents []listEntry, entStart []int32) {
	// Pass 1: a difference array of column counts, then prefix sums.
	entStart = make([]int32, numGroups+1)
	diff := make([]int32, numGroups+1)
	for _, r := range rects {
		diff[r.X1]++
		diff[r.X2+1]--
		diff[r.Y1]++
		diff[r.Y2+1]--
	}
	var count int32
	for ts := 0; ts < numGroups; ts++ {
		count += diff[ts]
		entStart[ts+1] = entStart[ts] + count
	}

	// Pass 2: place each entry at its column's cursor. The difference
	// array is spent, so it holds the cursors.
	ents = make([]listEntry, entStart[numGroups])
	cursor := diff[:numGroups]
	copy(cursor, entStart)
	for _, r := range rects {
		for a := r.X1; a <= r.X2; a++ {
			ents[cursor[a]] = listEntry{lo: int32(r.Y1), hi: int32(r.Y2), case1: r.Case1}
			cursor[a]++
		}
		for b := r.Y1; b <= r.Y2; b++ {
			ents[cursor[b]] = listEntry{lo: int32(r.X1), hi: int32(r.X2), case1: r.Case1, mirror: true}
			cursor[b]++
		}
	}

	// Pass 3: sort and dedup each column, packing the survivors leftwards.
	// entStart[ts] already holds column ts's packed start when ts is
	// reached; end is the column's unpacked end, read before it is
	// overwritten with the next column's packed start.
	lo := int32(0)
	for ts := 0; ts < numGroups; ts++ {
		end := entStart[ts+1]
		col := ents[lo:end]
		slices.SortFunc(col, compareEntries)
		n := copy(ents[entStart[ts]:], dedupColumn(col))
		entStart[ts+1] = entStart[ts] + int32(n)
		lo = end
	}
	return ents[:entStart[numGroups]], entStart
}

// compareEntries is the column order buildIndex sorts by: lo ascending,
// then hi descending (widest first so dedup sees the encloser), case-1
// before case-2 among equals, and plain orientation before mirrored. It is
// a total order, so the sorted column is unique however it was produced.
func compareEntries(a, b listEntry) int {
	switch {
	case a.lo != b.lo:
		return cmp.Compare(a.lo, b.lo)
	case a.hi != b.hi:
		return cmp.Compare(b.hi, a.hi)
	case a.case1 != b.case1:
		if a.case1 {
			return -1
		}
		return 1
	case a.mirror != b.mirror:
		if b.mirror {
			return -1
		}
		return 1
	}
	return 0
}

// toInt32s narrows decode-time timestamp slices; every value fits int32
// because readFile bounds them by numGroups < 2³⁰.
func toInt32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// dedupColumn removes entries enclosed by an earlier entry of the same
// column, plus exact duplicates. With Theorem-2 pruning on nothing is ever
// dropped (ranges are pairwise disjoint); with pruning disabled the
// redundant rectangles are nested inside retained ones, and by Theorem 2
// nested-or-disjoint is the only possibility, so "hi does not extend past
// the running maximum" is exactly enclosure. Case-1 entries are kept even
// when enclosed — they carry points-to facts that ListPointsTo and
// ListPointedBy filter by orientation, which a Case-2 or differently
// oriented encloser cannot stand in for — but an exact duplicate
// (identical range, case, and orientation) adds no information and
// previously leaked duplicate IDs into the List* answers, so those are
// dropped unconditionally.
func dedupColumn(l []listEntry) []listEntry {
	out := l[:0]
	maxHi := int32(-1)
	for _, e := range l {
		if len(out) > 0 && e == out[len(out)-1] {
			continue // exact duplicate: the sort made it adjacent
		}
		if e.hi <= maxHi && !e.case1 {
			continue
		}
		if e.hi > maxHi {
			maxHi = e.hi
		}
		out = append(out, e)
	}
	return out
}

// pesOf returns the PES index of a timestamp, or -1 for ts < 0.
func (ix *Index) pesOf(ts int) int {
	if ts < 0 || ts >= len(ix.pesOfTS) {
		return -1
	}
	return int(ix.pesOfTS[ts])
}

// entryCovering binary-searches the column's entries for one whose range
// contains y. The ranges of a column are pairwise disjoint (a decoded
// column drops nested ones in dedupColumn; generateRectangles' columns
// hold retained rectangles, disjoint by Theorem 2), so at most one matches
// and the predecessor-by-lo is the only candidate.
func entryCovering(list []listEntry, y int32) (listEntry, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].lo > y })
	if i == 0 {
		return listEntry{}, false
	}
	e := list[i-1]
	if y <= e.hi {
		return e, true
	}
	return listEntry{}, false
}

// IsAlias reports whether pointers p and q may alias, i.e. whether their
// points-to sets intersect. Out-of-range IDs and pointers with empty
// points-to sets alias nothing.
func (ix *Index) IsAlias(p, q int) bool {
	tp, tq := ix.tsOfPointer(p), ix.tsOfPointer(q)
	if tp < 0 || tq < 0 {
		return false
	}
	if p == q {
		return true // placed pointers have non-empty points-to sets
	}
	if ix.pesOf(tp) == ix.pesOf(tq) {
		return true // internal pair: both point to the PES origin object
	}
	x, y := tp, tq
	if x > y {
		x, y = y, x
	}
	_, ok := entryCovering(ix.col(x), int32(y))
	return ok
}

// ListAliases returns the pointers aliased to p (excluding p itself), in
// unspecified order and with no duplicates. The result is allocated
// exactly: len(result) == cap(result).
func (ix *Index) ListAliases(p int) []int {
	if ix.tsOfPointer(p) < 0 {
		return nil
	}
	return collect(ix.ptrsFlat, []int{}, func(emit func(lo, hi int)) { ix.AliasRuns(p, emit) })
}

// ListPointsTo returns the objects pointer p may point to, in unspecified
// order.
func (ix *Index) ListPointsTo(p int) []int {
	return collect(ix.objsFlat, nil, func(emit func(lo, hi int)) { ix.pointsToRuns(p, emit) })
}

// ListPointedBy returns the pointers that may point to object o, in
// unspecified order.
func (ix *Index) ListPointedBy(o int) []int {
	return collect(ix.ptrsFlat, nil, func(emit func(lo, hi int)) { ix.PointedByRuns(o, emit) })
}

// collect returns flat[lo:hi] of every run the visitor emits, in order,
// in a slice allocated exactly, or empty when the runs hold no ID.
func collect(flat []int32, empty []int, runs func(emit func(lo, hi int))) []int {
	n := 0
	runs(func(lo, hi int) { n += hi - lo })
	if n == 0 {
		return empty
	}
	out := make([]int, 0, n)
	runs(func(lo, hi int) {
		for _, id := range flat[lo:hi] {
			out = append(out, int(id))
		}
	})
	return out
}

// AliasRuns calls emit(lo, hi) for each run of positions [lo, hi) of the
// flat pointer order whose pointers make up ListAliases(p), in ascending
// order, and emits nothing when p is out of range or unplaced. The list
// queries and their Append forms are built on these visitors, so each
// query has one implementation; PointersAt and PointerText read a run.
func (ix *Index) AliasRuns(p int, emit func(lo, hi int)) {
	ts := ix.tsOfPointer(p)
	if ts < 0 {
		return
	}
	// Internal pairs: every pointer in p's PES; cross pairs: ranges of the
	// rectangles crossing column ts. The PES interval and the column's
	// entry ranges are visited in ascending-lo order, clipping each range
	// against the timestamps already visited — so nested or overlapping
	// ranges (possible with pruning off) contribute every timestamp
	// exactly once, and repeated sweeps (count, then fill) agree exactly.
	// p itself is always placed inside its PES interval and no entry
	// range contains its own column, so the sweep meets p's position
	// exactly once, and cuts it out there.
	k := ix.pesOf(ts)
	pesLo, pesHi := int(ix.originTS[k]), int(ix.pesEnd[k])
	self := ix.PointerPos(p)
	prevHi := -1
	visit := func(lo, hi int) {
		if hi <= prevHi {
			return // fully covered by an earlier range
		}
		if lo <= prevHi {
			lo = prevHi + 1
		}
		prevHi = hi
		a, b := int(ix.startOfTS[lo]), int(ix.startOfTS[hi+1])
		if a <= self && self < b {
			emit(a, self)
			a = self + 1
		}
		emit(a, b)
	}
	pesDone := false
	for _, e := range ix.col(ts) {
		if !pesDone && pesLo <= int(e.lo) {
			visit(pesLo, pesHi)
			pesDone = true
		}
		visit(int(e.lo), int(e.hi))
	}
	if !pesDone {
		visit(pesLo, pesHi)
	}
}

// pointsToRuns calls emit(lo, hi) for each run of positions of the flat
// object order whose objects make up ListPointsTo(p), in answer order.
func (ix *Index) pointsToRuns(p int, emit func(lo, hi int)) {
	ts := ix.tsOfPointer(p)
	if ts < 0 {
		return
	}
	// p points to the object(s) of its own PES origin.
	origin := ix.originTS[ix.pesOf(ts)]
	emit(int(ix.objStart[origin]), int(ix.objStart[origin+1]))
	// Case-1 rectangles whose X side covers ts: their Y1 is the timestamp
	// of an origin whose object(s) p also points to.
	for _, e := range ix.col(ts) {
		if e.case1 && !e.mirror {
			emit(int(ix.objStart[e.lo]), int(ix.objStart[e.lo+1]))
		}
	}
}

// PointedByRuns calls emit(lo, hi) for each run of positions of the flat
// pointer order whose pointers make up ListPointedBy(o), in answer order,
// and emits nothing when o is out of range.
func (ix *Index) PointedByRuns(o int, emit func(lo, hi int)) {
	if o < 0 || o >= ix.NumObjects {
		return
	}
	ts := int(ix.objectTS[o])
	// Every pointer in o's PES points to o.
	k := ix.pesOf(ts)
	emit(int(ix.startOfTS[ix.originTS[k]]), int(ix.startOfTS[ix.pesEnd[k]+1]))
	// Mirrored Case-1 entries at the origin column: their ranges are the
	// ξ-reachable subtrees of o's cross edges.
	for _, e := range ix.col(ts) {
		if e.case1 && e.mirror {
			emit(int(ix.startOfTS[e.lo]), int(ix.startOfTS[e.hi+1]))
		}
	}
}

// PointerPos returns p's position in the flat pointer order, or -1 when p
// is out of range or unplaced. A timestamp's bucket holds its pointers
// ascending (validate checks this for mapped files), so the position is a
// binary search away.
func (ix *Index) PointerPos(p int) int {
	ts := ix.tsOfPointer(p)
	if ts < 0 {
		return -1
	}
	lo := int(ix.startOfTS[ts])
	i, ok := slices.BinarySearch(ix.ptrsFlat[lo:ix.startOfTS[ts+1]], int32(p))
	if !ok {
		return -1
	}
	return lo + i
}

// PointersAt returns the pointers at positions [lo, hi) of the flat
// pointer order, a view the caller must not modify.
func (ix *Index) PointersAt(lo, hi int) []int32 { return ix.ptrsFlat[lo:hi] }

func (ix *Index) tsOfPointer(p int) int {
	if p < 0 || p >= ix.NumPointers {
		return -1
	}
	return int(ix.pointerTS[p])
}

// MemoryFootprint reports the resident size of the query structure in
// bytes (used by the Table-7 "querying memory" column). A zero-copy index
// charges the full mapped region — exactly the pages the kernel may keep
// resident for it — which is what internal/store budgets against. The ID
// text table, always on the heap, is charged once it is built.
func (ix *Index) MemoryFootprint() int64 {
	var n int64
	if t := ix.text.Load(); t != nil {
		n += t.bytes()
	}
	if ix.backing != 0 {
		return n + ix.backing
	}
	n += int64(len(ix.pointerTS)+len(ix.objectTS)+len(ix.originTS)+len(ix.pesEnd)+len(ix.pesOfTS)) * 4
	n += int64(len(ix.ptrsFlat)+len(ix.startOfTS)+len(ix.objsFlat)+len(ix.objStart)+len(ix.entStart)) * 4
	// cap, not len: with pruning off buildColumns packs the deduped
	// columns into a prefix of the array it placed them in.
	n += int64(cap(ix.ents)) * listEntrySize
	return n
}

// Rectangles returns the number of rectangle labels backing the index.
func (ix *Index) Rectangles() int { return ix.rectCount }

// Pointers, Objects, and Groups mirror the exported dimension fields as
// methods, so the Index satisfies the delta.Index query interface the
// store and server consume (interfaces cannot name fields).
func (ix *Index) Pointers() int { return ix.NumPointers }

// Objects returns NumObjects; see Pointers.
func (ix *Index) Objects() int { return ix.NumObjects }

// Groups returns NumGroups; see Pointers.
func (ix *Index) Groups() int { return ix.NumGroups }
