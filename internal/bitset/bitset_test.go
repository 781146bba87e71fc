package bitset

import (
	"bytes"
	"math/rand"
	"testing"

	"pestrie/internal/bitmap"
)

// pair couples a set under test with a bitmap.Sparse reference holding the
// same members, so every operation can be checked differentially.
type pair struct {
	got *Set
	ref *bitmap.Sparse
}

func newPair() pair { return pair{got: New(), ref: bitmap.New()} }

func (p pair) check(t *testing.T, label string) {
	t.Helper()
	want := p.ref.Members()
	got := p.got.Members()
	if len(want) != len(got) {
		t.Fatalf("%s: members diverge: got %d members, want %d\n got: %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: member %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
	if g, w := p.got.Count(), p.ref.Count(); g != w {
		t.Fatalf("%s: Count: got %d, want %d", label, g, w)
	}
	if g, w := p.got.Empty(), p.ref.Empty(); g != w {
		t.Fatalf("%s: Empty: got %v, want %v", label, g, w)
	}
	if g, w := p.got.Max(), p.ref.Max(); g != w {
		t.Fatalf("%s: Max: got %d, want %d", label, g, w)
	}
	if g, w := p.got.Hash(), p.ref.Hash(); g != w {
		t.Fatalf("%s: Hash diverges from bitmap reference: got %#x, want %#x (members %v)",
			label, g, w, want)
	}
}

// TestDifferentialOps drives randomized op sequences over two sets and
// checks every observable against bitmap.Sparse, once per representation:
// tight universes drive the sets onto the flat word array, a wide one
// keeps them in the sorted member array.
func TestDifferentialOps(t *testing.T) {
	for _, regime := range []struct {
		name      string
		universes []int
	}{
		{"flat", []int{70, 300, 5000}},
		{"sorted", []int{1 << 20}},
	} {
		t.Run(regime.name, func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				universe := regime.universes[int(seed)%len(regime.universes)]
				a, b := newPair(), newPair()
				for step := 0; step < 400; step++ {
					x, y := &a, &b
					if rng.Intn(2) == 0 {
						x, y = &b, &a
					}
					v := rng.Intn(universe)
					switch op := rng.Intn(10); op {
					case 0, 1, 2:
						x.got.Set(v)
						x.ref.Set(v)
					case 3:
						x.got.Clear(v)
						x.ref.Clear(v)
					case 4:
						if g, w := x.got.Test(v), x.ref.Test(v); g != w {
							t.Fatalf("seed %d step %d: Test(%d): got %v, want %v", seed, step, v, g, w)
						}
					case 5:
						x.got.Or(y.got)
						x.ref.Or(y.ref)
					case 6:
						x.got.And(y.got)
						x.ref.And(y.ref)
					case 7:
						x.got.AndNot(y.got)
						x.ref.AndNot(y.ref)
					case 8:
						if g, w := x.got.Intersects(y.got), x.ref.Intersects(y.ref); g != w {
							t.Fatalf("seed %d step %d: Intersects: got %v, want %v", seed, step, g, w)
						}
					case 9:
						if g, w := x.got.Equal(y.got), x.ref.Equal(y.ref); g != w {
							t.Fatalf("seed %d step %d: Equal: got %v, want %v", seed, step, g, w)
						}
					}
				}
				a.check(t, "a")
				b.check(t, "b")
			}
		})
	}
}

// TestOrChangedCountDelta verifies the wave-propagation primitive's
// contract: OrChanged returns true exactly when the receiver's cardinality
// grew.
func TestOrChangedCountDelta(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := []int{90, 2000, 1 << 18}[seed%3]
		dst := New()
		for step := 0; step < 120; step++ {
			src := New()
			for n := rng.Intn(50); n > 0; n-- {
				src.Set(rng.Intn(universe))
			}
			before := dst.Count()
			changed := dst.OrChanged(src)
			after := dst.Count()
			if changed != (after > before) {
				t.Fatalf("seed %d step %d: OrChanged=%v but count %d -> %d", seed, step, changed, before, after)
			}
			if !changed && dst.OrChanged(src) {
				t.Fatalf("seed %d step %d: second OrChanged of same src reported a change", seed, step)
			}
		}
	}
}

// TestSelfOps pins the aliasing cases: s op s.
func TestSelfOps(t *testing.T) {
	s := New()
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	if s.OrChanged(s) {
		t.Fatal("s.OrChanged(s) reported a change")
	}
	s.And(s)
	if s.Count() != 67 {
		t.Fatalf("s.And(s) changed count: %d", s.Count())
	}
	if !s.Equal(s) || !s.Intersects(s) {
		t.Fatal("s should equal and intersect itself")
	}
	s.AndNot(s)
	if !s.Empty() {
		t.Fatal("s.AndNot(s) should empty the set")
	}
}

// TestPromotionBoundary walks a Set across the sorted-array/word-array
// boundary and back through clears.
func TestPromotionBoundary(t *testing.T) {
	f := New()
	ref := bitmap.New()
	// Dense ascending run: must promote.
	for i := 0; i < 4*sparseMin; i++ {
		f.Set(i)
		ref.Set(i)
	}
	if f.words == nil {
		t.Fatal("dense ascending run did not promote to the word array")
	}
	// Wide scatter on a fresh set: must stay sorted (density rule).
	g := New()
	for i := 0; i < 3*sparseMin; i++ {
		g.Set(i * 100000)
	}
	if g.words != nil {
		t.Fatal("wide sparse set promoted to a word array (memory bloat)")
	}
	for i := 0; i < 4*sparseMin; i++ {
		f.Clear(i)
		ref.Clear(i)
	}
	if !f.Empty() || f.Hash() != ref.Hash() {
		t.Fatal("cleared-out promoted set not empty/hash-stable")
	}
	f.Set(7)
	if got := f.Members(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("reuse after clear-out: %v", got)
	}
}

// TestRoundTrip checks the wire format against bitmap's encoder.
func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := bitmap.New()
		for n := 0; n < 200; n++ {
			v := rng.Intn(1 << uint(8+seed))
			s.Set(v)
			ref.Set(v)
		}
		got := s.AppendTo(nil)
		if !bytes.Equal(got, ref.AppendTo(nil)) {
			t.Fatalf("seed %d: encoding differs from bitmap's", seed)
		}
		back, err := Read(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(s) {
			t.Fatalf("seed %d: round trip lost members", seed)
		}
	}
}

// TestFlatTestAllocs pins the query hot path: membership tests must not
// allocate on either representation.
func TestFlatTestAllocs(t *testing.T) {
	dense := New()
	for i := 0; i < 1024; i++ {
		dense.Set(i)
	}
	sparse := New()
	for i := 0; i < sparseMin/2; i++ {
		sparse.Set(i * 1000)
	}
	if n := testing.AllocsPerRun(100, func() {
		dense.Test(512)
		sparse.Test(3000)
	}); n != 0 {
		t.Fatalf("Test allocated %v times per run", n)
	}
}
