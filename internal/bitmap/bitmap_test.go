package bitmap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New()
	if !s.Empty() {
		t.Fatal("new bitmap not empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Test(0) || s.Test(127) || s.Test(1<<20) {
		t.Fatal("empty set reports membership")
	}
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatalf("Min/Max of empty = %d/%d, want -1/-1", s.Min(), s.Max())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New()
	vals := []int{0, 1, 63, 64, 127, 128, 129, 1000, 4096, 100000}
	for _, v := range vals {
		s.Set(v)
	}
	for _, v := range vals {
		if !s.Test(v) {
			t.Errorf("Test(%d) = false after Set", v)
		}
	}
	if s.Count() != len(vals) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(vals))
	}
	if s.Test(2) || s.Test(65) || s.Test(99999) {
		t.Error("spurious membership")
	}
	for _, v := range vals {
		s.Clear(v)
		if s.Test(v) {
			t.Errorf("Test(%d) = true after Clear", v)
		}
	}
	if !s.Empty() {
		t.Fatal("set not empty after clearing all members")
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New()
	s.Set(42)
	s.Set(42)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestClearAbsent(t *testing.T) {
	s := New()
	s.Set(10)
	s.Clear(99999) // absent block
	s.Clear(11)    // present block, absent bit
	if !s.Test(10) || s.Count() != 1 {
		t.Fatal("Clear of absent bit corrupted set")
	}
}

func TestNegativeIndices(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	if s.Test(-1) {
		t.Fatal("Test(-1) = true")
	}
	s.Clear(-5) // must be a no-op, not a panic
	s.Set(-1)
}

func TestMinMax(t *testing.T) {
	s := FromSlice([]int{500, 3, 77, 12345})
	if got := s.Min(); got != 3 {
		t.Errorf("Min = %d, want 3", got)
	}
	if got := s.Max(); got != 12345 {
		t.Errorf("Max = %d, want 12345", got)
	}
}

func TestMembersSorted(t *testing.T) {
	s := FromSlice([]int{9, 2, 700, 700, 2, 0})
	got := s.Members()
	want := []int{0, 2, 9, 700}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestOr(t *testing.T) {
	a := FromSlice([]int{1, 128, 4000})
	b := FromSlice([]int{2, 128, 9000})
	if changed := a.Or(b); !changed {
		t.Error("Or reported no change")
	}
	want := []int{1, 2, 128, 4000, 9000}
	if got := a.Members(); !equalInts(got, want) {
		t.Fatalf("Or result %v, want %v", got, want)
	}
	if changed := a.Or(b); changed {
		t.Error("second Or reported change")
	}
	// Self-union must be a no-op.
	if a.Or(a) {
		t.Error("self Or reported change")
	}
	// Union with nil / empty.
	if a.Or(nil) || a.Or(New()) {
		t.Error("Or with empty reported change")
	}
}

func TestAnd(t *testing.T) {
	a := FromSlice([]int{1, 2, 128, 4000, 9000})
	b := FromSlice([]int{2, 128, 8999, 9000})
	a.And(b)
	want := []int{2, 128, 9000}
	if got := a.Members(); !equalInts(got, want) {
		t.Fatalf("And result %v, want %v", got, want)
	}
	a.And(New())
	if !a.Empty() {
		t.Fatal("And with empty set not empty")
	}
}

func TestAndSelf(t *testing.T) {
	a := FromSlice([]int{5, 500})
	a.And(a)
	if !equalInts(a.Members(), []int{5, 500}) {
		t.Fatal("self And changed the set")
	}
}

func TestAndNot(t *testing.T) {
	a := FromSlice([]int{1, 2, 128, 4000})
	b := FromSlice([]int{2, 4000, 5000})
	a.AndNot(b)
	if got := a.Members(); !equalInts(got, []int{1, 128}) {
		t.Fatalf("AndNot result %v", got)
	}
	a.AndNot(a)
	if !a.Empty() {
		t.Fatal("self AndNot not empty")
	}
}

func TestIntersects(t *testing.T) {
	a := FromSlice([]int{1, 200, 3000})
	b := FromSlice([]int{2, 201, 3000})
	c := FromSlice([]int{4, 202})
	if !a.Intersects(b) {
		t.Error("a ∩ b missed")
	}
	if a.Intersects(c) {
		t.Error("a ∩ c spurious")
	}
	if a.Intersects(New()) || New().Intersects(a) {
		t.Error("intersection with empty set")
	}
	// Same block, different bits.
	d := FromSlice([]int{0})
	e := FromSlice([]int{1})
	if d.Intersects(e) {
		t.Error("same-block different-bit intersection")
	}
}

func TestEqualAndCopy(t *testing.T) {
	a := FromSlice([]int{3, 130, 100000})
	b := a.Copy()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("copy not equal")
	}
	b.Set(7)
	if a.Equal(b) {
		t.Fatal("mutation of copy affected equality")
	}
	if a.Test(7) {
		t.Fatal("copy aliases original storage")
	}
	if !New().Equal(New()) {
		t.Fatal("empty sets unequal")
	}
}

func TestHashEqualSets(t *testing.T) {
	a := FromSlice([]int{1, 99, 5000})
	b := FromSlice([]int{5000, 1, 99})
	if a.Hash() != b.Hash() {
		t.Fatal("equal sets hash differently")
	}
	c := FromSlice([]int{1, 99, 5001})
	if a.Hash() == c.Hash() {
		t.Fatal("hash collision on trivially different sets (suspicious)")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	n := 0
	s.ForEach(func(i int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{127, 128},
		{5, 6, 7, 1 << 20},
		{1000000},
	}
	for _, members := range cases {
		s := FromSlice(members)
		prefix := []byte{0xAA}
		enc := s.AppendTo(prefix)
		if enc[0] != 0xAA {
			t.Fatal("AppendTo overwrote the bytes it appends to")
		}
		got, err := ReadSparse(bytes.NewReader(enc[1:]))
		if err != nil {
			t.Fatalf("ReadSparse: %v", err)
		}
		if !got.Equal(s) {
			t.Errorf("round trip of %v gave %v", members, got.Members())
		}
	}
}

func TestReadFromTruncated(t *testing.T) {
	s := FromSlice([]int{1, 2, 3})
	enc := s.AppendTo(nil)
	trunc := enc[:len(enc)-1]
	var got Sparse
	if err := got.ReadFrom(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Fatal("ReadFrom accepted truncated input")
	}
}

// TestReadFromOverflow feeds delta streams whose accumulated index would
// overflow int: the decoder must error instead of panicking in Set.
// (Found by FuzzLoad in internal/bitenc.)
func TestReadFromOverflow(t *testing.T) {
	enc := func(vals ...uint64) []byte {
		var buf bytes.Buffer
		var b [binary.MaxVarintLen64]byte
		for _, v := range vals {
			n := binary.PutUvarint(b[:], v)
			buf.Write(b[:n])
		}
		return buf.Bytes()
	}
	cases := [][]byte{
		enc(1, 1<<63),           // single huge member
		enc(2, maxBit, maxBit),  // gaps individually at the cap, sum over it
		enc(3, 1, 1<<62, 1<<62), // overflow via accumulation
		enc(1, ^uint64(0)>>1+1), // would wrap int negative
	}
	for _, data := range cases {
		var got Sparse
		if err := got.ReadFrom(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Fatalf("ReadFrom accepted overflowing stream %v", data)
		}
	}
}

// model is a reference implementation used by the property tests.
type model map[int]bool

func (m model) members() []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func TestQuickAgainstModel(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		m := model{}
		for i := 0; i < int(nOps); i++ {
			v := rng.Intn(1024)
			switch rng.Intn(3) {
			case 0:
				s.Set(v)
				m[v] = true
			case 1:
				s.Clear(v)
				delete(m, v)
			case 2:
				if s.Test(v) != m[v] {
					return false
				}
			}
		}
		return equalInts(s.Members(), m.members()) && s.Count() == len(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetOpsAgainstModel(t *testing.T) {
	f := func(as, bs []uint16) bool {
		a, b := New(), New()
		ma, mb := model{}, model{}
		for _, v := range as {
			a.Set(int(v))
			ma[int(v)] = true
		}
		for _, v := range bs {
			b.Set(int(v))
			mb[int(v)] = true
		}
		// Union.
		u := a.Copy()
		u.Or(b)
		mu := model{}
		for k := range ma {
			mu[k] = true
		}
		for k := range mb {
			mu[k] = true
		}
		if !equalInts(u.Members(), mu.members()) {
			return false
		}
		// Intersection.
		in := a.Copy()
		in.And(b)
		mi := model{}
		for k := range ma {
			if mb[k] {
				mi[k] = true
			}
		}
		if !equalInts(in.Members(), mi.members()) {
			return false
		}
		// Difference.
		d := a.Copy()
		d.AndNot(b)
		md := model{}
		for k := range ma {
			if !mb[k] {
				md[k] = true
			}
		}
		if !equalInts(d.Members(), md.members()) {
			return false
		}
		// Intersects consistency.
		return a.Intersects(b) == (len(mi) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerialization(t *testing.T) {
	f := func(vals []uint16) bool {
		s := New()
		for _, v := range vals {
			s.Set(int(v))
		}
		got, err := ReadSparse(bytes.NewReader(s.AppendTo(nil)))
		if err != nil {
			return false
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRobustness(t *testing.T) {
	// Exercise the current-block cache with a mixed access pattern: forward
	// scans, backward probes, and deletions near the cursor.
	s := New()
	for i := 0; i < 2048; i += 2 {
		s.Set(i)
	}
	for i := 2046; i >= 0; i -= 2 {
		if !s.Test(i) {
			t.Fatalf("lost bit %d", i)
		}
	}
	s.Clear(1024)
	if s.Test(1024) {
		t.Fatal("cleared bit still present")
	}
	s.Set(1)
	if !s.Test(1) || !s.Test(0) {
		t.Fatal("cache confusion after head insert")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHashAllocs pins the zero-allocation guarantee of Hash: equivalence
// class detection hashes every matrix row, so a per-call allocation there
// is pure churn.
func TestHashAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 4096; i += 3 {
		s.Set(i)
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += s.Hash() }); n != 0 {
		t.Fatalf("Hash allocated %v times per run", n)
	}
	_ = sink
}
