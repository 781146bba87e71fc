package bitset

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Row serialization uses the exact delta-varint coding of internal/bitmap's
// io.go — varint member count, then each member as a gap from the previous
// one — so a matrix persisted from Set rows is byte-identical to one
// persisted from bitmap.Sparse rows.

// AppendTo appends the serialization of f to b: a varint count followed
// by delta-varint members.
func (f *Set) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(f.Count()))
	prev := 0
	f.ForEach(func(i int) bool {
		b = binary.AppendUvarint(b, uint64(i-prev))
		prev = i
		return true
	})
	return b
}

// maxBit bounds decoded member indexes, rejecting corrupt delta streams
// whose accumulated index would overflow the set's 32-bit member space.
// It is far above any plausible matrix dimension.
const maxBit = 1 << 32

// Read reads one serialized set from r. It decodes the gap stream straight
// into the sorted array in a single exactly-sized allocation (the members
// arrive ascending by construction), then promotes once at the end if the
// result is dense — skipping the incremental growth and promotion copies
// Set would do per member. The preallocation is capped so a corrupt count
// can't reserve gigabytes before the stream runs dry.
func Read(r io.ByteReader) (*Set, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("bitset: reading count: %w", err)
	}
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	f := &Set{sparse: make([]uint32, 0, capHint)}
	cur := uint64(0)
	for i := uint64(0); i < n; i++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("bitset: reading member %d/%d: %w", i, n, err)
		}
		if gap >= maxBit || cur+gap >= maxBit {
			return nil, fmt.Errorf("bitset: implausible member index %d (gap %d at member %d/%d)", cur+gap, gap, i, n)
		}
		cur += gap
		if i > 0 && gap == 0 {
			continue // duplicate member in a hand-built stream
		}
		f.sparse = append(f.sparse, uint32(cur))
	}
	if len(f.sparse) > 0 {
		loW := int(f.sparse[0] >> 6)
		hiW := int(f.sparse[len(f.sparse)-1] >> 6)
		if shouldPromote(len(f.sparse), loW, hiW) {
			f.promoteRange(loW, hiW)
		}
	}
	return f, nil
}
