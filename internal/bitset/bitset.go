// Package bitset is the set of integers behind every pipeline set in this
// repository: points-to matrix rows, the Andersen solver's points-to and
// delta sets, and flow-analysis states.
//
// Set is a cache-friendly hybrid. Small or genuinely sparse sets live in a
// sorted member array; once a set is dense enough, it promotes to a flat
// []uint64 word array, so unions and intersections become straight word
// loops with no pointer chasing.
//
// The paper's baselines (BitP and the demand-driven oracle) do not use this
// package: they keep GCC-style linked rows in internal/bitmap, the structure
// the paper measures. A Set hashes (Hash) and serializes (AppendTo) exactly
// as a bitmap.Sparse with the same members does, so equivalence classes and
// persisted bytes do not depend on which of the two holds a row.
package bitset

import (
	"math/bits"
	"slices"
)

// sparseMin is the cardinality below which a Set always stays in
// sorted-array form. Above it, the set promotes to the word array as soon
// as its occupied word span is at most twice its cardinality (density
// >= 1/128), which bounds dense memory at 4x the sorted array. Truly
// sparse wide sets — a handful of members scattered over a huge range —
// therefore never explode into a giant word array, which also keeps
// decode-time allocation proportional to input size for untrusted rows.
const sparseMin = 32

// Set is the hybrid flat-array set. Exactly one representation is active:
// words == nil means the sorted member array holds the set; otherwise
// words[w] covers the 64 bit indexes starting at (base+w)*64. base is kept
// even so the word array stays aligned to the 128-bit blocks the Hash
// scheme (shared with bitmap.Sparse) is defined over.
//
// Members are non-negative and must be below 1<<32. Sets are not safe for
// concurrent mutation; concurrent reads are fine. Binary operations treat a
// nil operand as the empty set.
type Set struct {
	sparse []uint32
	words  []uint64
	base   int
}

// New returns an empty set.
func New() *Set { return &Set{} }

func shouldPromote(n, loW, hiW int) bool {
	if n < sparseMin {
		return false
	}
	return hiW-(loW&^1)+1 <= 2*n
}

// searchU32 returns the insertion index of v in the sorted slice a.
func searchU32(a []uint32, v uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// promoteRange switches to the word representation over the absolute word
// range [loW, hiW], which must cover every current member.
func (f *Set) promoteRange(loW, hiW int) {
	loW &^= 1
	words := make([]uint64, hiW-loW+1)
	for _, v := range f.sparse {
		words[int(v)>>6-loW] |= 1 << (v & 63)
	}
	f.base, f.words, f.sparse = loW, words, nil
}

// ensure grows the word array to cover the absolute word range [loW, hiW].
func (f *Set) ensure(loW, hiW int) {
	loW &^= 1
	if len(f.words) == 0 {
		f.base = loW
		f.words = make([]uint64, hiW-loW+1)
		return
	}
	curLo, curHi := f.base, f.base+len(f.words)-1
	if loW >= curLo && hiW <= curHi {
		return
	}
	nlo, nhi := curLo, curHi
	// Grow with slack so repeated one-word extensions amortize.
	slack := len(f.words) / 2
	if loW < nlo {
		nlo = loW - slack
		if nlo < 0 {
			nlo = 0
		}
		nlo &^= 1
	}
	if hiW > nhi {
		nhi = hiW + slack
	}
	words := make([]uint64, nhi-nlo+1)
	copy(words[curLo-nlo:], f.words)
	f.base, f.words = nlo, words
}

// denseBounds returns the offsets of the first and last nonzero words, or
// (0, -1) when the word array holds no bits.
func (f *Set) denseBounds() (lo, hi int) {
	lo, hi = 0, len(f.words)-1
	for lo < len(f.words) && f.words[lo] == 0 {
		lo++
	}
	if lo == len(f.words) {
		return 0, -1
	}
	for f.words[hi] == 0 {
		hi--
	}
	return lo, hi
}

func (f *Set) reset() {
	f.words, f.base = nil, 0
	f.sparse = f.sparse[:0]
}

// Set inserts bit i into the set. It panics if i is negative.
func (f *Set) Set(i int) {
	if i < 0 {
		panic("bitset: negative bit index")
	}
	if f.words == nil {
		v := uint32(i)
		n := len(f.sparse)
		if n > 0 && f.sparse[n-1] < v {
			f.sparse = append(f.sparse, v) // ascending insertion fast path
		} else {
			k := searchU32(f.sparse, v)
			if k < n && f.sparse[k] == v {
				return
			}
			f.sparse = append(f.sparse, 0)
			copy(f.sparse[k+1:], f.sparse[k:])
			f.sparse[k] = v
		}
		n = len(f.sparse)
		loW, hiW := int(f.sparse[0])>>6, int(f.sparse[n-1])>>6
		if shouldPromote(n, loW, hiW) {
			f.promoteRange(loW, hiW)
		}
		return
	}
	w := i >> 6
	f.ensure(w, w)
	f.words[w-f.base] |= 1 << uint(i&63)
}

// Clear removes bit i from the set.
func (f *Set) Clear(i int) {
	if i < 0 {
		return
	}
	if f.words == nil {
		v := uint32(i)
		if k := searchU32(f.sparse, v); k < len(f.sparse) && f.sparse[k] == v {
			f.sparse = append(f.sparse[:k], f.sparse[k+1:]...)
		}
		return
	}
	w := i >> 6
	if k := w - f.base; k >= 0 && k < len(f.words) {
		f.words[k] &^= 1 << uint(i&63)
	}
}

// Test reports whether bit i is in the set.
func (f *Set) Test(i int) bool {
	if i < 0 {
		return false
	}
	if f.words == nil {
		v := uint32(i)
		k := searchU32(f.sparse, v)
		return k < len(f.sparse) && f.sparse[k] == v
	}
	w := i >> 6
	k := w - f.base
	return k >= 0 && k < len(f.words) && f.words[k]&(1<<uint(i&63)) != 0
}

// Empty reports whether the set has no members.
func (f *Set) Empty() bool {
	if f.words == nil {
		return len(f.sparse) == 0
	}
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (f *Set) Count() int {
	if f.words == nil {
		return len(f.sparse)
	}
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy returns an independent copy, trimmed to its occupied extent.
func (f *Set) Copy() *Set {
	if f.words == nil {
		out := &Set{}
		if len(f.sparse) > 0 {
			out.sparse = append([]uint32(nil), f.sparse...)
		}
		return out
	}
	lo, hi := f.denseBounds()
	if hi < lo {
		return &Set{}
	}
	lo &^= 1 // keep the 128-bit alignment of base
	return &Set{
		base:  f.base + lo,
		words: append([]uint64(nil), f.words[lo:hi+1]...),
	}
}

// members32 returns the members as a sorted []uint32. For sparse sets this
// is the backing array itself — callers must not mutate it.
func (f *Set) members32() []uint32 {
	if f.words == nil {
		return f.sparse
	}
	out := make([]uint32, 0, f.Count())
	lo, hi := f.denseBounds()
	for j := lo; j <= hi; j++ {
		w := f.words[j]
		base := (f.base + j) << 6
		for w != 0 {
			t := bits.TrailingZeros64(w)
			out = append(out, uint32(base+t))
			w &^= 1 << uint(t)
		}
	}
	return out
}

// orSorted merges the sorted members ov into the sparse representation,
// promoting afterwards if the union is dense enough. A counting pre-pass
// makes the no-op union (the common case once a fixpoint loop starts to
// converge) allocation-free, and when the target has spare capacity the
// merge runs backwards in place.
func (f *Set) orSorted(ov []uint32) bool {
	if len(ov) == 0 {
		return false
	}
	fv := f.sparse
	// Count members of ov not already in fv.
	adds := 0
	i, j := 0, 0
	for i < len(fv) && j < len(ov) {
		switch {
		case fv[i] < ov[j]:
			i++
		case fv[i] > ov[j]:
			adds++
			j++
		default:
			i++
			j++
		}
	}
	adds += len(ov) - j
	if adds == 0 {
		return false
	}
	n := len(fv) + adds
	if n <= cap(fv) {
		// Backward in-place merge: writes never overtake unread input.
		f.sparse = fv[:n]
		i, j = len(fv)-1, len(ov)-1
		for k := n - 1; j >= 0; k-- {
			if i >= 0 && fv[i] > ov[j] {
				f.sparse[k] = fv[i]
				i--
			} else {
				if i >= 0 && fv[i] == ov[j] {
					i--
				}
				f.sparse[k] = ov[j]
				j--
			}
		}
	} else {
		merged := make([]uint32, 0, n)
		i, j = 0, 0
		for i < len(fv) && j < len(ov) {
			switch {
			case fv[i] < ov[j]:
				merged = append(merged, fv[i])
				i++
			case fv[i] > ov[j]:
				merged = append(merged, ov[j])
				j++
			default:
				merged = append(merged, fv[i])
				i++
				j++
			}
		}
		merged = append(merged, fv[i:]...)
		merged = append(merged, ov[j:]...)
		f.sparse = merged
	}
	loW, hiW := int(f.sparse[0])>>6, int(f.sparse[n-1])>>6
	if shouldPromote(n, loW, hiW) {
		f.promoteRange(loW, hiW)
	}
	return true
}

// Or unions o into f.
func (f *Set) Or(o *Set) { f.OrChanged(o) }

// OrChanged unions o into f and reports whether any bit was added.
func (f *Set) OrChanged(o *Set) bool {
	if o == nil || o == f {
		return false
	}
	if o.words == nil {
		if len(o.sparse) == 0 {
			return false
		}
		if f.words == nil {
			return f.orSorted(o.sparse)
		}
		changed := false
		for _, v := range o.sparse {
			w := int(v) >> 6
			f.ensure(w, w)
			bit := uint64(1) << (v & 63)
			if f.words[w-f.base]&bit == 0 {
				f.words[w-f.base] |= bit
				changed = true
			}
		}
		return changed
	}
	olo, ohi := o.denseBounds()
	if ohi < olo {
		return false
	}
	if f.words == nil {
		// Promote only if the union would satisfy the density rule;
		// otherwise fold o's members into the sorted array.
		loW, hiW := o.base+olo, o.base+ohi
		if n := len(f.sparse); n > 0 {
			if w := int(f.sparse[0]) >> 6; w < loW {
				loW = w
			}
			if w := int(f.sparse[n-1]) >> 6; w > hiW {
				hiW = w
			}
		}
		if !shouldPromote(len(f.sparse)+o.Count(), loW, hiW) {
			return f.orSorted(o.members32())
		}
		f.promoteRange(loW, hiW)
	}
	f.ensure(o.base+olo, o.base+ohi)
	changed := false
	words := f.words
	shift := o.base - f.base
	for j := olo; j <= ohi; j++ {
		w := o.words[j]
		if w == 0 {
			continue
		}
		if nw := words[j+shift] | w; nw != words[j+shift] {
			words[j+shift] = nw
			changed = true
		}
	}
	return changed
}

// And intersects f with o in place.
func (f *Set) And(o *Set) {
	if o == nil {
		f.reset()
		return
	}
	if o == f {
		return
	}
	if f.words == nil {
		out := f.sparse[:0]
		for _, v := range f.sparse {
			if o.Test(int(v)) {
				out = append(out, v)
			}
		}
		f.sparse = out
		return
	}
	if o.words == nil {
		// The result is a subset of o's sorted members: demote.
		var out []uint32
		for _, v := range o.sparse {
			if f.Test(int(v)) {
				out = append(out, v)
			}
		}
		f.words, f.base, f.sparse = nil, 0, out
		if n := len(out); n > 0 {
			loW, hiW := int(out[0])>>6, int(out[n-1])>>6
			if shouldPromote(n, loW, hiW) {
				f.promoteRange(loW, hiW)
			}
		}
		return
	}
	for j := range f.words {
		var ow uint64
		if k := f.base + j - o.base; k >= 0 && k < len(o.words) {
			ow = o.words[k]
		}
		f.words[j] &= ow
	}
}

// AndNot removes every member of o from f.
func (f *Set) AndNot(o *Set) {
	if o == nil {
		return
	}
	if o == f {
		f.reset()
		return
	}
	if f.words == nil {
		out := f.sparse[:0]
		for _, v := range f.sparse {
			if !o.Test(int(v)) {
				out = append(out, v)
			}
		}
		f.sparse = out
		return
	}
	if o.words == nil {
		for _, v := range o.sparse {
			if k := int(v)>>6 - f.base; k >= 0 && k < len(f.words) {
				f.words[k] &^= 1 << (v & 63)
			}
		}
		return
	}
	lo, hi := o.denseBounds()
	for j := lo; j <= hi; j++ {
		if k := o.base + j - f.base; k >= 0 && k < len(f.words) {
			f.words[k] &^= o.words[j]
		}
	}
}

// Intersects reports whether f and o share a member, without
// materialising the intersection.
func (f *Set) Intersects(o *Set) bool {
	if o == nil {
		return false
	}
	if o == f {
		return !f.Empty()
	}
	if f.words == nil && o.words == nil {
		i, j := 0, 0
		for i < len(f.sparse) && j < len(o.sparse) {
			switch {
			case f.sparse[i] < o.sparse[j]:
				i++
			case f.sparse[i] > o.sparse[j]:
				j++
			default:
				return true
			}
		}
		return false
	}
	if f.words == nil {
		for _, v := range f.sparse {
			if o.Test(int(v)) {
				return true
			}
		}
		return false
	}
	if o.words == nil {
		for _, v := range o.sparse {
			if f.Test(int(v)) {
				return true
			}
		}
		return false
	}
	lo, hi := max(f.base, o.base), min(f.base+len(f.words), o.base+len(o.words))
	for w := lo; w < hi; w++ {
		if f.words[w-f.base]&o.words[w-o.base] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether f and o have exactly the same members.
func (f *Set) Equal(o *Set) bool {
	if o == nil {
		return f.Empty()
	}
	if o == f {
		return true
	}
	if f.words == nil && o.words == nil {
		return slices.Equal(f.sparse, o.sparse)
	}
	if f.words != nil && o.words != nil {
		flo, fhi := f.denseBounds()
		olo, ohi := o.denseBounds()
		if fhi-flo != ohi-olo {
			return false
		}
		if fhi < flo {
			return true
		}
		if f.base+flo != o.base+olo {
			return false
		}
		for j := 0; j <= fhi-flo; j++ {
			if f.words[flo+j] != o.words[olo+j] {
				return false
			}
		}
		return true
	}
	if f.Count() != o.Count() {
		return false
	}
	s, d := f, o
	if f.words != nil {
		s, d = o, f
	}
	for _, v := range s.sparse {
		if !d.Test(int(v)) {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in increasing order.
func (f *Set) ForEach(fn func(i int) bool) {
	if f.words == nil {
		for _, v := range f.sparse {
			if !fn(int(v)) {
				return
			}
		}
		return
	}
	for j, w := range f.words {
		if w == 0 {
			continue
		}
		base := (f.base + j) << 6
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(base + t) {
				return
			}
			w &^= 1 << uint(t)
		}
	}
}

// Members returns all members in increasing order.
func (f *Set) Members() []int {
	out := make([]int, 0, f.Count())
	f.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Max returns the largest member, or -1 if the set is empty.
func (f *Set) Max() int {
	if f.words == nil {
		if len(f.sparse) == 0 {
			return -1
		}
		return int(f.sparse[len(f.sparse)-1])
	}
	lo, hi := f.denseBounds()
	if hi < lo {
		return -1
	}
	return (f.base+hi)<<6 + 63 - bits.LeadingZeros64(f.words[hi])
}

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnvMix folds the eight bytes of v into h, least significant first —
// exactly the byte order bitmap.Sparse.Hash uses.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Hash returns the per-128-bit-block FNV-1a hash shared with
// bitmap.Sparse.Hash: for every nonempty block, mix the block index and
// its two words. A bitmap.Sparse with the same members hashes identically.
func (f *Set) Hash() uint64 {
	h := uint64(fnvOffset)
	if f.words == nil {
		i := 0
		for i < len(f.sparse) {
			blk := f.sparse[i] >> 7
			var w0, w1 uint64
			for ; i < len(f.sparse) && f.sparse[i]>>7 == blk; i++ {
				if off := f.sparse[i] & 127; off < 64 {
					w0 |= 1 << off
				} else {
					w1 |= 1 << (off - 64)
				}
			}
			h = fnvMix(h, uint64(blk))
			h = fnvMix(h, w0)
			h = fnvMix(h, w1)
		}
		return h
	}
	// base is even, so words pair up into the same 128-bit blocks
	// bitmap.Sparse allocates.
	for j := 0; j < len(f.words); j += 2 {
		w0 := f.words[j]
		var w1 uint64
		if j+1 < len(f.words) {
			w1 = f.words[j+1]
		}
		if w0|w1 == 0 {
			continue
		}
		h = fnvMix(h, uint64(f.base+j)>>1)
		h = fnvMix(h, w0)
		h = fnvMix(h, w1)
	}
	return h
}
