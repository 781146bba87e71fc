// Package bitmap implements a GCC-style sparse bitmap: an ordered, singly
// linked list of fixed-size blocks, each covering a contiguous range of bit
// indices. This mirrors the sparse bitmap library the paper takes from GCC
// (§7: "The sparse bitmap implementation is taken from the GCC compiler ...
// We use the default 128 bits for each sparse bitmap block").
//
// The linked-list layout is load-bearing for the reproduction: locating an
// arbitrary bit is O(number of blocks), which is exactly why the paper's
// bitmap-backed IsAlias is O(n) while Pestrie's is O(log n) (§7.1.1). As in
// GCC, a one-element "current block" cache makes sequential access patterns
// fast without changing the worst case.
package bitmap

import "math/bits"

// WordsPerBlock * 64 = 128 bits per block, GCC's default and the optimal
// setting in the paper's evaluation.
const (
	WordsPerBlock = 2
	// BlockBits is the number of bits covered by one block.
	BlockBits = WordsPerBlock * 64
)

type block struct {
	index int // block number: covers bits [index*BlockBits, (index+1)*BlockBits)
	words [WordsPerBlock]uint64
	next  *block
}

func (b *block) empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Sparse is a set of non-negative integers stored as a sparse bitmap.
// The zero value is an empty set ready to use.
type Sparse struct {
	first *block
	// current caches the most recently touched block and the block that
	// precedes it, emulating GCC's bitmap element cache.
	current *block
	prev    *block // block before current, nil if current == first
}

// New returns an empty sparse bitmap.
func New() *Sparse { return &Sparse{} }

// find positions the cursor at the block with the given index, or at the
// insertion point if absent. It returns the block (nil if absent) and the
// block preceding the insertion point (nil if the insertion point is the
// head of the list).
func (s *Sparse) find(index int) (blk, before *block) {
	start := s.first
	var prev *block
	// Start from the cache when it does not overshoot the target.
	if s.current != nil && s.current.index <= index {
		start = s.current
		prev = s.prev
	}
	for b := start; b != nil; b = b.next {
		if b.index == index {
			s.current, s.prev = b, prev
			return b, prev
		}
		if b.index > index {
			return nil, prev
		}
		prev = b
	}
	return nil, prev
}

// insertAfter links a fresh block with the given index after prev (or at the
// head when prev is nil) and returns it.
func (s *Sparse) insertAfter(prev *block, index int) *block {
	nb := &block{index: index}
	if prev == nil {
		nb.next = s.first
		s.first = nb
	} else {
		nb.next = prev.next
		prev.next = nb
	}
	s.current, s.prev = nb, prev
	return nb
}

// Set inserts bit i into the set. It panics if i is negative.
func (s *Sparse) Set(i int) {
	if i < 0 {
		panic("bitmap: negative bit index")
	}
	idx, off := i/BlockBits, i%BlockBits
	b, prev := s.find(idx)
	if b == nil {
		b = s.insertAfter(prev, idx)
	}
	b.words[off/64] |= 1 << uint(off%64)
}

// Clear removes bit i from the set. Clearing an absent bit is a no-op.
func (s *Sparse) Clear(i int) {
	if i < 0 {
		return
	}
	idx, off := i/BlockBits, i%BlockBits
	b, prev := s.find(idx)
	if b == nil {
		return
	}
	b.words[off/64] &^= 1 << uint(off%64)
	if b.empty() {
		s.unlink(b, prev)
	}
}

func (s *Sparse) unlink(b, prev *block) {
	if prev == nil {
		s.first = b.next
	} else {
		prev.next = b.next
	}
	// Invalidate the cache conservatively.
	s.current, s.prev = s.first, nil
}

// Test reports whether bit i is in the set.
func (s *Sparse) Test(i int) bool {
	if i < 0 {
		return false
	}
	idx, off := i/BlockBits, i%BlockBits
	b, _ := s.find(idx)
	if b == nil {
		return false
	}
	return b.words[off/64]&(1<<uint(off%64)) != 0
}

// Empty reports whether the set has no members.
func (s *Sparse) Empty() bool { return s.first == nil }

// Count returns the number of bits in the set.
func (s *Sparse) Count() int {
	n := 0
	for b := s.first; b != nil; b = b.next {
		for _, w := range b.words {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Blocks returns the number of allocated blocks; together with the fixed
// per-block overhead this gives the in-memory footprint of the bitmap.
func (s *Sparse) Blocks() int {
	n := 0
	for b := s.first; b != nil; b = b.next {
		n++
	}
	return n
}

// Copy returns an independent copy of the set.
func (s *Sparse) Copy() *Sparse {
	out := New()
	var tail *block
	for b := s.first; b != nil; b = b.next {
		nb := &block{index: b.index, words: b.words}
		if tail == nil {
			out.first = nb
		} else {
			tail.next = nb
		}
		tail = nb
	}
	out.current = out.first
	return out
}

// Or unions other into s and reports whether s changed. A nil other is
// treated as the empty set.
func (s *Sparse) Or(other *Sparse) bool {
	if other == nil || other.first == nil || s == other {
		return false
	}
	changed := false
	var prev *block
	a := s.first
	o := other.first
	for o != nil {
		for a != nil && a.index < o.index {
			prev, a = a, a.next
		}
		if a != nil && a.index == o.index {
			for w := range a.words {
				nw := a.words[w] | o.words[w]
				if nw != a.words[w] {
					a.words[w] = nw
					changed = true
				}
			}
			prev, a = a, a.next
		} else {
			nb := &block{index: o.index, words: o.words, next: a}
			if prev == nil {
				s.first = nb
			} else {
				prev.next = nb
			}
			prev = nb
			changed = true
		}
		o = o.next
	}
	s.current, s.prev = s.first, nil
	return changed
}

// And intersects s with other in place.
func (s *Sparse) And(other *Sparse) {
	if s == other {
		return
	}
	var prev *block
	a := s.first
	var o *block
	if other != nil {
		o = other.first
	}
	for a != nil {
		for o != nil && o.index < a.index {
			o = o.next
		}
		if o != nil && o.index == a.index {
			empty := true
			for w := range a.words {
				a.words[w] &= o.words[w]
				if a.words[w] != 0 {
					empty = false
				}
			}
			if empty {
				next := a.next
				if prev == nil {
					s.first = next
				} else {
					prev.next = next
				}
				a = next
				continue
			}
			prev, a = a, a.next
		} else {
			next := a.next
			if prev == nil {
				s.first = next
			} else {
				prev.next = next
			}
			a = next
		}
	}
	s.current, s.prev = s.first, nil
}

// AndNot removes every member of other from s.
func (s *Sparse) AndNot(other *Sparse) {
	if other == nil {
		return
	}
	if s == other {
		s.first, s.current, s.prev = nil, nil, nil
		return
	}
	var prev *block
	a := s.first
	o := other.first
	for a != nil && o != nil {
		switch {
		case o.index < a.index:
			o = o.next
		case o.index > a.index:
			prev, a = a, a.next
		default:
			empty := true
			for w := range a.words {
				a.words[w] &^= o.words[w]
				if a.words[w] != 0 {
					empty = false
				}
			}
			next := a.next
			if empty {
				if prev == nil {
					s.first = next
				} else {
					prev.next = next
				}
			} else {
				prev = a
			}
			a = next
			o = o.next
		}
	}
	s.current, s.prev = s.first, nil
}

// Intersects reports whether s and other share at least one member without
// materialising the intersection. This is the demand-driven IsAlias kernel.
func (s *Sparse) Intersects(other *Sparse) bool {
	if s == nil || other == nil {
		return false
	}
	a, o := s.first, other.first
	for a != nil && o != nil {
		switch {
		case a.index < o.index:
			a = a.next
		case a.index > o.index:
			o = o.next
		default:
			for w := range a.words {
				if a.words[w]&o.words[w] != 0 {
					return true
				}
			}
			a, o = a.next, o.next
		}
	}
	return false
}

// Equal reports whether s and other contain exactly the same members.
func (s *Sparse) Equal(other *Sparse) bool {
	var a, o *block
	if s != nil {
		a = s.first
	}
	if other != nil {
		o = other.first
	}
	for a != nil && o != nil {
		if a.index != o.index || a.words != o.words {
			return false
		}
		a, o = a.next, o.next
	}
	return a == nil && o == nil
}

// ForEach calls fn for every member in increasing order. Iteration stops if
// fn returns false.
func (s *Sparse) ForEach(fn func(i int) bool) {
	for b := s.first; b != nil; b = b.next {
		base := b.index * BlockBits
		for w, word := range b.words {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				if !fn(base + w*64 + t) {
					return
				}
				word &^= 1 << uint(t)
			}
		}
	}
}

// Members returns all members in increasing order.
func (s *Sparse) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Min returns the smallest member, or -1 if the set is empty.
func (s *Sparse) Min() int {
	b := s.first
	if b == nil {
		return -1
	}
	for w, word := range b.words {
		if word != 0 {
			return b.index*BlockBits + w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1 // unreachable: blocks are never empty
}

// Max returns the largest member, or -1 if the set is empty.
func (s *Sparse) Max() int {
	var last *block
	for b := s.first; b != nil; b = b.next {
		last = b
	}
	if last == nil {
		return -1
	}
	for w := WordsPerBlock - 1; w >= 0; w-- {
		if word := last.words[w]; word != 0 {
			return last.index*BlockBits + w*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1 // unreachable
}

// Hash returns an FNV-1a style hash of the set contents, suitable for
// bucketing equal sets (used by equivalence-class detection). It walks the
// blocks directly — no member slice, no closures — so hashing a row never
// allocates, which matters when equivalence-class detection hashes every
// matrix row. internal/bitset replicates this scheme exactly, so a
// bitset.Set with the same members hashes identically.
func (s *Sparse) Hash() uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	for b := s.first; b != nil; b = b.next {
		h = hashMix(h, uint64(b.index))
		for _, w := range b.words {
			h = hashMix(h, w)
		}
	}
	return h
}

// hashMix folds the eight bytes of v into h, least significant first.
func hashMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// FromSlice builds a set containing the given members.
func FromSlice(members []int) *Sparse {
	s := New()
	for _, m := range members {
		s.Set(m)
	}
	return s
}

// Transpose returns the width rows of the transpose of rows: row o of the
// result holds every i with o ∈ rows[i]. Every output row is allocated, so
// callers never meet a nil row. The BitP and demand baselines derive their
// pointed-by rows with it.
func Transpose(rows []*Sparse, width int) []*Sparse {
	out := make([]*Sparse, width)
	for o := range out {
		out[o] = New()
	}
	for i, r := range rows {
		r.ForEach(func(o int) bool {
			out[o].Set(i) // i ascends, so the block cache makes Set O(1)
			return true
		})
	}
	return out
}
