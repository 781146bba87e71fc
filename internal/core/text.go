package core

import (
	"slices"
	"strconv"
)

// The list queries answer with runs of the flat pointer and object orders
// (AliasRuns, pointsToRuns, PointedByRuns), so the JSON text of an answer
// is the concatenation of the same runs of a table that holds each ID's
// decimal text once. The Append methods copy answers out of that table:
// formatting work is done once per index, not once per answered ID.

// flatText is the ID text of one flat order: each position's decimal ID
// followed by a comma, concatenated in flat order, so positions [lo, hi)
// are text[off[lo]:off[hi]]. An ID is below the loaders' 2³⁰ bound, at
// most 11 bytes with its comma, so a full table can pass 2³² bytes: the
// offsets are int64 (TestIDTextOffsetsCannotOverflow).
type flatText struct {
	text []byte
	off  []int64
}

// idText is an index's ID text table over both flat orders.
type idText struct {
	ptrs, objs flatText
}

// idTextLen is the length of id's entry in a text table: its decimal
// digits and the comma.
func idTextLen(id int32) int64 {
	n := int64(2)
	for ; id >= 10; id /= 10 {
		n++
	}
	return n
}

func encodeFlat(flat []int32) flatText {
	off := make([]int64, len(flat)+1)
	for i, id := range flat {
		off[i+1] = off[i] + idTextLen(id)
	}
	text := make([]byte, 0, off[len(flat)])
	for _, id := range flat {
		text = append(strconv.AppendInt(text, int64(id), 10), ',')
	}
	return flatText{text: text, off: off}
}

func (t *idText) bytes() int64 {
	return int64(len(t.ptrs.text)+len(t.objs.text)) + 8*int64(len(t.ptrs.off)+len(t.objs.off))
}

// textTable returns the index's text table, building it on first use. A
// mapped index builds it on the heap: the file holds binary IDs only.
func (ix *Index) textTable() *idText {
	ix.textOnce.Do(func() {
		ix.text.Store(&idText{ptrs: encodeFlat(ix.ptrsFlat), objs: encodeFlat(ix.objsFlat)})
	})
	return ix.text.Load()
}

// BuildIDText builds the ID text table the Append methods copy from, if
// it is not built yet. They build it on first use anyway; calling this
// moves the cost, and the table's MemoryFootprint charge, to load time.
func (ix *Index) BuildIDText() { ix.textTable() }

// PointerText returns the text of positions [lo, hi) of the flat pointer
// order, each ID followed by a comma, a view the caller must not modify.
func (ix *Index) PointerText(lo, hi int) []byte {
	t := &ix.textTable().ptrs
	return t.text[t.off[lo]:t.off[hi]]
}

// AppendAliases appends to b the bytes json.Marshal writes for
// ListAliases(p), null and [] included.
func (ix *Index) AppendAliases(b []byte, p int) []byte {
	if ix.tsOfPointer(p) < 0 {
		return append(b, "null"...)
	}
	return appendRuns(b, &ix.textTable().ptrs, "[]", func(emit func(lo, hi int)) { ix.AliasRuns(p, emit) })
}

// AppendPointsTo appends to b the bytes json.Marshal writes for
// ListPointsTo(p).
func (ix *Index) AppendPointsTo(b []byte, p int) []byte {
	return appendRuns(b, &ix.textTable().objs, "null", func(emit func(lo, hi int)) { ix.pointsToRuns(p, emit) })
}

// AppendPointedBy appends to b the bytes json.Marshal writes for
// ListPointedBy(o).
func (ix *Index) AppendPointedBy(b []byte, o int) []byte {
	return appendRuns(b, &ix.textTable().ptrs, "null", func(emit func(lo, hi int)) { ix.PointedByRuns(o, emit) })
}

// appendRuns appends the text of every run the visitor emits as one JSON
// array, growing b once to the exact size, or empty when the runs hold no
// ID: the count pass sums offsets, the copy pass moves whole runs.
func appendRuns(b []byte, t *flatText, empty string, runs func(emit func(lo, hi int))) []byte {
	var n int64
	runs(func(lo, hi int) { n += t.off[hi] - t.off[lo] })
	if n == 0 {
		return append(b, empty...)
	}
	// '[' plus the runs; their last comma becomes the ']'.
	b = slices.Grow(b, int(n)+1)
	b = append(b, '[')
	runs(func(lo, hi int) { b = append(b, t.text[t.off[lo]:t.off[hi]]...) })
	b[len(b)-1] = ']'
	return b
}
