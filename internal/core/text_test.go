package core

import (
	"math"
	"strconv"
	"testing"
)

// The table's offsets are int64: this line stops compiling if they are
// narrowed, and the test below shows why they must not be.
var _ []int64 = flatText{}.off

// TestIDTextOffsetsCannotOverflow works out the largest text table the
// loaders admit, one flat order holding every ID below their bound, by
// the entry lengths encodeFlat sums: it passes 2³² bytes, so 32-bit
// offsets would wrap, and it fits int64 many times over.
func TestIDTextOffsetsCannotOverflow(t *testing.T) {
	if got, want := idTextLen(maxCount-1), int64(len(strconv.Itoa(maxCount-1))+1); got != want {
		t.Fatalf("widest entry %d bytes, want %d", got, want)
	}
	var total int64
	for lo := int64(0); lo < maxCount; {
		hi := min(max(10*lo, 10), maxCount) // the IDs with lo's digit count
		total += (hi - lo) * idTextLen(int32(lo))
		lo = hi
	}
	if total <= math.MaxUint32 {
		t.Fatalf("a full table takes %d bytes: 32-bit offsets would do", total)
	}
	if total > math.MaxInt64/(1<<20) {
		t.Fatalf("a full table takes %d bytes, near the int64 limit", total)
	}
}
