package bitmap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Serialization uses delta-varint coding of the set members: the first
// member is written as-is, subsequent members as gaps. This is the "BitP"
// on-disk row format used by the bitmap persistence baseline (§7.1.2): it is
// compact for clustered sets and decodes in a single linear pass.

// AppendTo appends the set's coding to b: a varint count followed by
// delta-varint members.
func (s *Sparse) AppendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(s.Count()))
	prev := 0
	s.ForEach(func(i int) bool {
		b = binary.AppendUvarint(b, uint64(i-prev))
		prev = i
		return true
	})
	return b
}

// maxBit bounds decoded member indexes. It is far above any plausible
// matrix dimension; its job is rejecting corrupt delta streams whose
// accumulated index would otherwise overflow int and panic in Set.
const maxBit = 1 << 32

// ReadFrom replaces the contents of s with a set coded by AppendTo.
func (s *Sparse) ReadFrom(r io.ByteReader) error {
	s.first, s.current, s.prev = nil, nil, nil
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("bitmap: reading count: %w", err)
	}
	cur := uint64(0)
	for i := uint64(0); i < n; i++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("bitmap: reading member %d/%d: %w", i, n, err)
		}
		if gap > maxBit || cur+gap > maxBit {
			return fmt.Errorf("bitmap: implausible member index %d (gap %d at member %d/%d)", cur+gap, gap, i, n)
		}
		cur += gap
		s.Set(int(cur))
	}
	return nil
}

// ReadSparse reads one serialized set from r.
func ReadSparse(r io.ByteReader) (*Sparse, error) {
	s := New()
	if err := s.ReadFrom(r); err != nil {
		return nil, err
	}
	return s, nil
}
