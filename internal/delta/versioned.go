package delta

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pestrie/internal/core"
)

// baseHold refcounts a shared base index across the snapshots built over
// it: Extend returns a new Snapshot that reuses the same decoded (or
// mapped) base instead of re-decoding it, so the base may only be Closed —
// which unmaps a PES2 file — when the last snapshot over it goes away.
type baseHold struct {
	ix   *core.Index
	refs atomic.Int64
}

func (h *baseHold) release() error {
	if h.refs.Add(-1) == 0 {
		return h.ix.Close()
	}
	return nil
}

// overlay is the cumulative effect of a delta-chain prefix relative to the
// base, immutable once built. Snapshots layer exactly one overlay over the
// base; applying one more segment copies the overlay (copy-on-write on the
// touched rows), so every generation keeps answering from its own frozen
// state while newer generations are installed — the read_snapshot
// semantics of the flock persistent_ptr design.
type overlay struct {
	pointers, objects int
	// dirty maps a pointer to its complete, sorted points-to set at this
	// generation. Pointers absent from dirty are untouched: the base
	// answer stands.
	dirty map[int32][]int32
	// addBy maps an object to the sorted pointers that point at it now but
	// not in the base; delBy maps it to the base pointers that no longer
	// do, as their sorted positions in the base's flat pointer order, the
	// form in which they are cut out of the base answer. Invariants:
	// addBy[o] is disjoint from the base's pointed-by set, delBy[o] is a
	// subset of it, and both stay consistent with dirty.
	addBy map[int32][]int32
	delBy map[int32][]int32
	// dirtyBits is the key set of dirty as a bitset over the pointer
	// universe: a clean pointer is recognised without a map lookup, and
	// the dirty pointers read out ascending. dirtyPos holds the sorted
	// base positions of the dirty pointers the base places, which a clean
	// pointer's answer cuts out of the base answer.
	dirtyBits []uint64
	dirtyPos  []int32
	bytes     int64
}

// clone copies the overlay's maps for the segment s to edit, at s's
// dimensions.
func (ov *overlay) clone(s *Segment) *overlay {
	out := &overlay{
		pointers:  s.NumPointers,
		objects:   s.NumObjects,
		dirty:     make(map[int32][]int32, len(ov.dirty)),
		addBy:     make(map[int32][]int32, len(ov.addBy)),
		delBy:     make(map[int32][]int32, len(ov.delBy)),
		dirtyBits: make([]uint64, (s.NumPointers+63)/64),
		dirtyPos:  slices.Clone(ov.dirtyPos),
	}
	copy(out.dirtyBits, ov.dirtyBits)
	for k, v := range ov.dirty {
		out.dirty[k] = v
	}
	for k, v := range ov.addBy {
		out.addBy[k] = v
	}
	for k, v := range ov.delBy {
		out.delBy[k] = v
	}
	return out
}

// isDirty reports whether p's points-to set differs from the base.
func (ov *overlay) isDirty(p int) bool {
	w := uint(p) >> 6
	return w < uint(len(ov.dirtyBits)) && ov.dirtyBits[w]&(1<<(uint(p)&63)) != 0
}

func (ov *overlay) finish() {
	var n int64
	for _, v := range ov.dirty {
		n += int64(len(v))
	}
	for _, v := range ov.addBy {
		n += int64(len(v))
	}
	for _, v := range ov.delBy {
		n += int64(len(v))
	}
	n += int64(len(ov.dirtyPos))
	// 4 bytes per stored ID or position plus a flat per-entry charge for
	// map overhead, plus the dirty bitset.
	ov.bytes = n*4 + int64(len(ov.dirty)+len(ov.addBy)+len(ov.delBy))*48 + int64(len(ov.dirtyBits))*8
}

func contains(sorted []int32, x int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// insertSorted returns a new slice with x added; shared tails are copied,
// never mutated, because older overlays may alias the input.
func insertSorted(sorted []int32, x int32) []int32 {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	out := make([]int32, 0, len(sorted)+1)
	out = append(out, sorted[:i]...)
	out = append(out, x)
	return append(out, sorted[i:]...)
}

func removeSorted(sorted []int32, x int32) []int32 {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	if i >= len(sorted) || sorted[i] != x {
		return sorted
	}
	out := make([]int32, 0, len(sorted)-1)
	out = append(out, sorted[:i]...)
	return append(out, sorted[i+1:]...)
}

// basePts returns the sorted base points-to set of p.
func basePts(base *core.Index, p int32) []int32 {
	pts := base.ListPointsTo(int(p))
	out := make([]int32, len(pts))
	for i, o := range pts {
		out[i] = int32(o)
	}
	slices.Sort(out)
	return out
}

// intersects reports whether two ascending lists share an element.
func intersects(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// apply layers one more segment onto the overlay, returning a fresh
// overlay and leaving the receiver untouched. Application is strict: a
// segment that breaks the structural invariants a decoded one satisfies
// (runs ascending by pointer among them), adds a fact already present at
// the parent generation, or removes one that is absent, is rejected —
// silently tolerating any would let a mis-chained segment corrupt every
// later generation.
func (ov *overlay) apply(base *core.Index, s *Segment) (*overlay, error) {
	if s.NumPointers < ov.pointers || s.NumObjects < ov.objects {
		return nil, fmt.Errorf("pesd: segment %d shrinks dimensions %d×%d to %d×%d",
			s.Gen, ov.pointers, ov.objects, s.NumPointers, s.NumObjects)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := ov.clone(s)
	for _, r := range s.Runs {
		// pos is -1 for a pointer the base does not place, which has no
		// base facts to cut.
		pos := int32(base.PointerPos(int(r.Ptr)))
		cur, wasDirty := out.dirty[r.Ptr]
		if !wasDirty {
			cur = basePts(base, r.Ptr)
			out.dirtyBits[r.Ptr>>6] |= 1 << (r.Ptr & 63)
			if pos >= 0 {
				j, _ := slices.BinarySearch(out.dirtyPos, pos)
				out.dirtyPos = slices.Insert(out.dirtyPos, j, pos)
			}
		}
		next := append([]int32(nil), cur...)
		for _, o := range r.Del {
			if !contains(next, o) {
				return nil, fmt.Errorf("pesd: segment %d removes absent fact (%d,%d)", s.Gen, r.Ptr, o)
			}
			next = removeSorted(next, o)
			if base.PointsTo(int(r.Ptr), int(o)) {
				out.delBy[o] = insertSorted(out.delBy[o], pos)
			} else {
				out.addBy[o] = removeSorted(out.addBy[o], r.Ptr)
				if len(out.addBy[o]) == 0 {
					delete(out.addBy, o)
				}
			}
		}
		for _, o := range r.Add {
			if contains(next, o) {
				return nil, fmt.Errorf("pesd: segment %d adds existing fact (%d,%d)", s.Gen, r.Ptr, o)
			}
			next = insertSorted(next, o)
			if base.PointsTo(int(r.Ptr), int(o)) {
				out.delBy[o] = removeSorted(out.delBy[o], pos)
				if len(out.delBy[o]) == 0 {
					delete(out.delBy, o)
				}
			} else {
				out.addBy[o] = insertSorted(out.addBy[o], r.Ptr)
			}
		}
		out.dirty[r.Ptr] = next
	}
	out.finish()
	return out, nil
}

// Snapshot answers the Table-1 queries at one pinned generation: the base
// plus one overlay. It is an immutable view: a Snapshot keeps answering
// from its generation no matter how many newer snapshots Extend builds
// over the same base, and it stays valid until it is Closed. It holds no
// older generation, only the stamps of the chain that led to it.
type Snapshot struct {
	base    *core.Index
	hold    *baseHold
	lineage []uint64 // every generation's stamp, base first, this one last
	ov      *overlay // nil: the snapshot is the base itself
	once    sync.Once
}

// New wraps base and applies the segments in order, returning the head
// snapshot, which owns base: the last Close of a snapshot over it closes
// base. The first segment's Parent names the base generation; with no
// segments the base generation is 0. On error base stays the caller's.
func New(base *core.Index, segs ...*Segment) (*Snapshot, error) {
	var gen uint64
	if len(segs) > 0 {
		gen = segs[0].Parent
	}
	return newAt(base, gen, segs)
}

// newAt is New with the base generation given. The root snapshot it
// extends holds no reference, so the result's is the only one.
func newAt(base *core.Index, gen uint64, segs []*Segment) (*Snapshot, error) {
	root := &Snapshot{base: base, hold: &baseHold{ix: base}, lineage: []uint64{gen}}
	return root.Extend(segs...)
}

// Open loads the base file at basePath (PES1 or PES2, as core.OpenFile)
// and applies the valid delta chain discovered next to it, returning the
// head snapshot. The returned Chain reports what was found, including why
// a suffix was skipped.
func Open(basePath string) (*Snapshot, *Chain, error) {
	return OpenAt(basePath, math.MaxUint64)
}

// OpenAt is Open stopped at the newest generation <= gen, the
// read_snapshot operation. It fails when gen predates the base.
func OpenAt(basePath string, gen uint64) (*Snapshot, *Chain, error) {
	chain, err := LoadChain(basePath)
	if err != nil {
		return nil, nil, err
	}
	segs, baseGen := chain.Segs, uint64(0)
	if len(segs) > 0 {
		baseGen = segs[0].Parent
	}
	if gen < baseGen {
		return nil, nil, fmt.Errorf("pesd: generation %d predates the base generation %d", gen, baseGen)
	}
	n := sort.Search(len(segs), func(i int) bool { return segs[i].Gen > gen })
	base, err := core.OpenFile(basePath)
	if err != nil {
		return nil, nil, err
	}
	sn, err := newAt(base, baseGen, segs[:n])
	if err != nil {
		base.Close()
		return nil, nil, err
	}
	return sn, chain, nil
}

// Extend applies further segments, returning the next snapshot over the
// same base (no re-decode). The result holds its own reference on the
// base, so it and the receiver are Closed independently, and the receiver
// keeps answering at its generation.
func (sn *Snapshot) Extend(segs ...*Segment) (*Snapshot, error) {
	ov, lineage := sn.ov, slices.Clip(sn.lineage)
	for _, s := range segs {
		if head := lineage[len(lineage)-1]; s.Parent != head {
			return nil, fmt.Errorf("pesd: segment %d chains onto generation %d, head is %d",
				s.Gen, s.Parent, head)
		}
		if ov == nil {
			ov = &overlay{pointers: sn.base.Pointers(), objects: sn.base.Objects()}
		}
		var err error
		if ov, err = ov.apply(sn.base, s); err != nil {
			return nil, err
		}
		lineage = append(lineage, s.Gen)
	}
	sn.hold.refs.Add(1)
	return &Snapshot{base: sn.base, hold: sn.hold, lineage: lineage, ov: ov}, nil
}

// Close releases this snapshot's reference on the shared base; the last
// release closes the base index (unmapping a PES2 file). Callers must
// drain queries against this snapshot first, exactly as with
// core.Index.Close — internal/store's refcount pinning provides this.
func (sn *Snapshot) Close() error {
	var err error
	sn.once.Do(func() { err = sn.hold.release() })
	return err
}

// Base returns the base index every generation of the chain layers over.
func (sn *Snapshot) Base() *core.Index { return sn.base }

// Generation returns the stamp every answer from this snapshot is pinned to.
func (sn *Snapshot) Generation() uint64 { return sn.lineage[len(sn.lineage)-1] }

// Chain returns the number of delta segments applied on top of the base.
func (sn *Snapshot) Chain() int { return len(sn.lineage) - 1 }

// Lineage returns the stamps of the chain's generations, ascending: the
// base generation first, this snapshot's last.
func (sn *Snapshot) Lineage() []uint64 { return slices.Clone(sn.lineage) }

// Pointers returns the pointer-universe size at this generation.
func (sn *Snapshot) Pointers() int {
	if sn.ov != nil {
		return sn.ov.pointers
	}
	return sn.base.Pointers()
}

// Objects returns the object-universe size at this generation.
func (sn *Snapshot) Objects() int {
	if sn.ov != nil {
		return sn.ov.objects
	}
	return sn.base.Objects()
}

// Groups returns the base index's timestamp-group count (deltas add no
// groups until compaction folds them in).
func (sn *Snapshot) Groups() int { return sn.base.Groups() }

// Rectangles returns the base index's rectangle count.
func (sn *Snapshot) Rectangles() int { return sn.base.Rectangles() }

// Mapped reports whether the underlying base serves zero-copy.
func (sn *Snapshot) Mapped() bool { return sn.base.Mapped() }

// MemoryFootprint charges the base plus this generation's overlay.
func (sn *Snapshot) MemoryFootprint() int64 {
	n := sn.base.MemoryFootprint()
	if sn.ov != nil {
		n += sn.ov.bytes
	}
	return n
}

func (sn *Snapshot) dirtyRow(p int) ([]int32, bool) {
	if sn.ov == nil || !sn.ov.isDirty(p) {
		return nil, false
	}
	return sn.ov.dirty[int32(p)], true
}

// PointsTo reports whether p points to o at this generation.
func (sn *Snapshot) PointsTo(p, o int) bool {
	if p < 0 || p >= sn.Pointers() || o < 0 || o >= sn.Objects() {
		return false
	}
	if row, ok := sn.dirtyRow(p); ok {
		return contains(row, int32(o))
	}
	return sn.base.PointsTo(p, o)
}

// ListPointsTo returns the objects p points to at this generation.
func (sn *Snapshot) ListPointsTo(p int) []int {
	if p < 0 || p >= sn.Pointers() {
		return nil
	}
	if row, ok := sn.dirtyRow(p); ok {
		out := make([]int, len(row))
		for i, o := range row {
			out[i] = int(o)
		}
		return out
	}
	return sn.base.ListPointsTo(p)
}

// AppendPointsTo appends to b the bytes json.Marshal writes for
// ListPointsTo(p).
func (sn *Snapshot) AppendPointsTo(b []byte, p int) []byte {
	if p < 0 || p >= sn.Pointers() {
		return append(b, "null"...)
	}
	if row, ok := sn.dirtyRow(p); ok {
		return appendArray(b, row)
	}
	return sn.base.AppendPointsTo(b, p)
}

// ListPointedBy returns the pointers pointing to o at this generation: the
// base answer minus the removed pointers plus the added ones. Added
// pointers are disjoint from the base set by overlay invariant, so the
// answer stays duplicate-free.
func (sn *Snapshot) ListPointedBy(o int) []int {
	if o < 0 || o >= sn.Objects() {
		return nil
	}
	if sn.ov == nil {
		return sn.base.ListPointedBy(o)
	}
	runs := sn.pointedByRuns(o)
	n := 0
	runs(func(lo, hi int) { n += hi - lo })
	return sn.collectOverlay(n, runs, sn.ov.addBy[int32(o)])
}

// AppendPointedBy appends to b the bytes json.Marshal writes for
// ListPointedBy(o): the base runs copied from the base's text table, then
// the added pointers formatted.
func (sn *Snapshot) AppendPointedBy(b []byte, o int) []byte {
	if o < 0 || o >= sn.Objects() {
		return append(b, "null"...)
	}
	if sn.ov == nil {
		return sn.base.AppendPointedBy(b, o)
	}
	runs := sn.pointedByRuns(o)
	n := 0
	runs(sn.textLen(&n))
	return sn.appendOverlay(b, n, runs, sn.ov.addBy[int32(o)])
}

// pointedByRuns visits the runs of the base's ListPointedBy(o) left after
// the pointers that no longer point to o are cut out.
func (sn *Snapshot) pointedByRuns(o int) func(emit func(lo, hi int)) {
	del := sn.ov.delBy[int32(o)]
	return func(emit func(lo, hi int)) { sn.base.PointedByRuns(o, cutting(del, emit, nil)) }
}

// aliasRuns visits the runs of the base's ListAliases(p) left after the
// dirty pointers are cut out.
func (sn *Snapshot) aliasRuns(p int) func(emit func(lo, hi int)) {
	return func(emit func(lo, hi int)) { sn.base.AliasRuns(p, cutting(sn.ov.dirtyPos, emit, nil)) }
}

// collectOverlay returns an overlay answer, never nil: the pointers of
// the base runs, n of them, then the tail.
func (sn *Snapshot) collectOverlay(n int, runs func(emit func(lo, hi int)), tail []int32) []int {
	out := make([]int, 0, n+len(tail))
	runs(func(lo, hi int) {
		for _, p := range sn.base.PointersAt(lo, hi) {
			out = append(out, int(p))
		}
	})
	for _, p := range tail {
		out = append(out, int(p))
	}
	return out
}

// textLen returns an emitter that adds the text length of each run to *n.
func (sn *Snapshot) textLen(n *int) func(lo, hi int) {
	return func(lo, hi int) { *n += len(sn.base.PointerText(lo, hi)) }
}

// appendOverlay appends an overlay answer as JSON, never null: the text of
// the base runs, n bytes, then the tail formatted, growing b once to fit.
func (sn *Snapshot) appendOverlay(b []byte, n int, runs func(emit func(lo, hi int)), tail []int32) []byte {
	b = slices.Grow(b, n+textCap(tail)+2)
	b = append(b, '[')
	runs(func(lo, hi int) { b = append(b, sn.base.PointerText(lo, hi)...) })
	return closeArray(appendIDs(b, tail))
}

// cutting returns an emitter that passes each run on to emit with the
// positions in cut, which is sorted, left out, calling hit(pos) for each
// position it leaves out when hit is non-nil. Runs may come in any order:
// each finds its first cut by binary search.
func cutting(cut []int32, emit func(lo, hi int), hit func(pos int)) func(lo, hi int) {
	return func(lo, hi int) {
		i, _ := slices.BinarySearch(cut, int32(lo))
		for ; i < len(cut) && int(cut[i]) < hi; i++ {
			emit(lo, int(cut[i]))
			lo = int(cut[i]) + 1
			if hit != nil {
				hit(int(cut[i]))
			}
		}
		emit(lo, hi)
	}
}

// IsAlias reports whether the points-to sets of p and q intersect at this
// generation.
func (sn *Snapshot) IsAlias(p, q int) bool {
	if p < 0 || q < 0 || p >= sn.Pointers() || q >= sn.Pointers() {
		return false
	}
	rowP, dirtyP := sn.dirtyRow(p)
	rowQ, dirtyQ := sn.dirtyRow(q)
	if p == q {
		if dirtyP {
			return len(rowP) > 0
		}
		return sn.base.IsAlias(p, q)
	}
	switch {
	case !dirtyP && !dirtyQ:
		// Both untouched: their sets equal the base sets exactly.
		return sn.base.IsAlias(p, q)
	case dirtyP:
		for _, o := range rowP {
			if sn.PointsTo(q, int(o)) {
				return true
			}
		}
		return false
	default:
		for _, o := range rowQ {
			if sn.PointsTo(p, int(o)) {
				return true
			}
		}
		return false
	}
}

// ListAliases returns the pointers aliasing p at this generation,
// duplicate-free and excluding p itself.
func (sn *Snapshot) ListAliases(p int) []int {
	if p < 0 || p >= sn.Pointers() {
		return nil
	}
	if sn.ov == nil {
		return sn.base.ListAliases(p)
	}
	if row, ok := sn.dirtyRow(p); ok {
		return sn.dirtyAliases(p, row)
	}
	n := 0
	tail := sn.cleanAliases(p, func(lo, hi int) { n += hi - lo })
	return sn.collectOverlay(n, sn.aliasRuns(p), tail)
}

// dirtyAliases answers ListAliases for a dirty pointer p whose points-to
// set is row: it marks every pointer pointing to an object of row in a
// bitset over the pointer universe, straight from the object's pointed-by
// runs and added pointers, clears p, and reads the marks out ascending.
// The answer is never nil.
func (sn *Snapshot) dirtyAliases(p int, row []int32) []int {
	marks := make([]uint64, (sn.Pointers()+63)/64)
	for _, o := range row {
		sn.pointedByRuns(int(o))(func(lo, hi int) {
			for _, q := range sn.base.PointersAt(lo, hi) {
				marks[q>>6] |= 1 << (q & 63)
			}
		})
		for _, q := range sn.ov.addBy[o] {
			marks[q>>6] |= 1 << (q & 63)
		}
	}
	marks[p>>6] &^= 1 << (p & 63)
	return members(marks)
}

// members returns the set bits of marks ascending, never nil.
func members(marks []uint64) []int {
	n := 0
	for _, m := range marks {
		n += bits.OnesCount64(m)
	}
	out := make([]int, 0, n)
	for i, m := range marks {
		for ; m != 0; m &= m - 1 {
			out = append(out, i<<6|bits.TrailingZeros64(m))
		}
	}
	return out
}

// AppendAliases appends to b the bytes json.Marshal writes for
// ListAliases(p). A clean pointer's answer copies the base runs from the
// base's text table; a dirty pointer's is formatted.
func (sn *Snapshot) AppendAliases(b []byte, p int) []byte {
	if p < 0 || p >= sn.Pointers() {
		return append(b, "null"...)
	}
	if sn.ov == nil {
		return sn.base.AppendAliases(b, p)
	}
	if sn.ov.isDirty(p) {
		return appendArray(b, sn.ListAliases(p))
	}
	n := 0
	tail := sn.cleanAliases(p, sn.textLen(&n))
	return sn.appendOverlay(b, n, sn.aliasRuns(p), tail)
}

// cleanAliases visits the answer of a clean pointer p at an overlay
// generation. It calls emit with each run of the base answer left after
// the dirty pointers are cut out, and returns the dirty pointers that
// alias p now, ascending: the clean answers keep the base order and the
// dirty ones follow. The base answer is correct for every clean q (both
// sets unchanged). A dirty q aliases p through an object o of p's
// unchanged set: if q pointed to o in the base, q is cut from the base
// answer and re-decided against its overlay row; if not, q is in addBy[o].
func (sn *Snapshot) cleanAliases(p int, emit func(lo, hi int)) []int32 {
	rowP := basePts(sn.base, int32(p))
	var tail []int32
	sn.base.AliasRuns(p, cutting(sn.ov.dirtyPos, emit, func(pos int) {
		q := sn.base.PointersAt(pos, pos+1)[0]
		if intersects(rowP, sn.ov.dirty[q]) {
			tail = append(tail, q)
		}
	}))
	for _, o := range rowP {
		tail = append(tail, sn.ov.addBy[o]...)
	}
	slices.Sort(tail)
	return slices.Compact(tail)
}

// DirtyPointers returns the sorted pointers whose points-to sets differ
// from the base at this generation (empty for the base snapshot).
func (sn *Snapshot) DirtyPointers() []int {
	if sn.ov == nil {
		return nil
	}
	return members(sn.ov.dirtyBits)
}

// AffectedPointers closes DirtyPointers under aliasing, in both the base
// and this generation: a pointer whose own set never changed can still
// gain or lose query answers through a dirty partner (a changed alias
// pair, a shared object whose pointed-by set moved), and any such partner
// aliases a dirty pointer before or after the edits. This is the dirtied
// region ptalint re-checks; see clients.Run's scoped mode. The answer is
// sorted.
func (sn *Snapshot) AffectedPointers() []int {
	if sn.ov == nil {
		return nil
	}
	marks := slices.Clone(sn.ov.dirtyBits)
	mark := func(qs []int) {
		for _, q := range qs {
			marks[q>>6] |= 1 << (q & 63)
		}
	}
	for _, p := range sn.DirtyPointers() {
		mark(sn.base.ListAliases(p))
		mark(sn.ListAliases(p))
	}
	return members(marks)
}

// The formatter below writes the IDs no text table holds: dirty rows,
// dirty pointers' answers, and the tails of overlay answers. Its entries
// take the form of core's text table, each ID followed by a comma, so the
// two concatenate into one array.

// appendArray appends ids as json.Marshal writes a non-nil slice.
func appendArray[T int | int32](b []byte, ids []T) []byte {
	b = slices.Grow(b, textCap(ids)+2)
	return closeArray(appendIDs(append(b, '['), ids))
}

// appendIDs appends each ID's decimal text followed by a comma.
func appendIDs[T int | int32](b []byte, ids []T) []byte {
	for _, id := range ids {
		b = append(strconv.AppendInt(b, int64(id), 10), ',')
	}
	return b
}

// closeArray ends an array that b opened with '[': the comma after its
// last ID becomes the ']', or the array is empty.
func closeArray(b []byte) []byte {
	if b[len(b)-1] == ',' {
		b[len(b)-1] = ']'
		return b
	}
	return append(b, ']')
}

// textCap bounds the bytes appendIDs writes for ids: no ID is wider than
// the largest.
func textCap[T int | int32](ids []T) int {
	if len(ids) == 0 {
		return 0
	}
	width := 2
	for hi := slices.Max(ids); hi >= 10; hi /= 10 {
		width++
	}
	return len(ids) * width
}
