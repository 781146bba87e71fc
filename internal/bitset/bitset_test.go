package bitset

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"

	"pestrie/internal/bitmap"
)

// pair couples a set under test with a bitmap.Sparse reference holding the
// same members, so every operation can be checked differentially.
type pair struct {
	got Set
	ref *bitmap.Sparse
}

func newPair(mk func() Set) pair { return pair{got: mk(), ref: bitmap.New()} }

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
	if g, w := p.got.Min(), p.ref.Min(); g != w {
		t.Fatalf("%s: Min: got %d, want %d", label, g, w)
	}
	if g, w := p.got.Max(), p.ref.Max(); g != w {
		t.Fatalf("%s: Max: got %d, want %d", label, g, w)
	}
	if g, w := p.got.Hash(), p.ref.Hash(); g != w {
		t.Fatalf("%s: Hash diverges from bitmap reference: got %#x, want %#x (members %v)",
			label, g, w, want)
	}
}

// TestDifferentialOps drives randomized op sequences over two sets per
// substrate and checks every observable against bitmap.Sparse.
func TestDifferentialOps(t *testing.T) {
	substrates := []struct {
		name string
		mk   func() Set
	}{
		{"flat", func() Set { return NewFlat() }},
		{"linked", func() Set { return NewLinked() }},
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				// Mix of tight and wide universes exercises both the
				// sorted-array and promoted word representations.
				universe := []int{70, 300, 5000, 1 << 20}[seed%4]
				a, b := newPair(sub.mk), newPair(sub.mk)
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
	for _, mk := range []func() Set{func() Set { return NewFlat() }, func() Set { return NewLinked() }} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			universe := []int{90, 2000, 1 << 18}[seed%3]
			dst := mk()
			for step := 0; step < 120; step++ {
				src := mk()
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
}

// TestSelfOps pins the aliasing cases: s op s.
func TestSelfOps(t *testing.T) {
	for _, mk := range []func() Set{func() Set { return NewFlat() }, func() Set { return NewLinked() }} {
		s := mk()
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
}

// TestCrossSubstrateOps checks the generic fallbacks when Flat and Linked
// operands meet, in both directions.
func TestCrossSubstrateOps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := []int{128, 4096}[seed%2]
		f, l := Set(NewFlat()), Set(NewLinked())
		ref := bitmap.New()
		for n := 0; n < 150; n++ {
			v := rng.Intn(universe)
			f.Set(v)
			l.Set(v)
			ref.Set(v)
		}
		if !f.Equal(l) || !l.Equal(f) {
			t.Fatal("equal-content cross-substrate sets not Equal")
		}
		if f.Hash() != l.Hash() || f.Hash() != ref.Hash() {
			t.Fatal("cross-substrate hash mismatch")
		}
		if !f.Intersects(l) || !l.Intersects(f) {
			t.Fatal("cross-substrate Intersects false negative")
		}
		other := NewLinked()
		other.Set(universe + 5)
		if f.OrChanged(other) != true || f.OrChanged(other) != false {
			t.Fatal("cross-substrate OrChanged wrong")
		}
		if !f.Test(universe + 5) {
			t.Fatal("cross-substrate Or lost a member")
		}
		f.AndNot(other)
		if f.Test(universe + 5) {
			t.Fatal("cross-substrate AndNot kept a member")
		}
		f.And(l)
		if !f.Equal(ref2set(ref)) {
			t.Fatal("cross-substrate And diverged")
		}
	}
}

func ref2set(ref *bitmap.Sparse) Set {
	s := NewFlat()
	ref.ForEach(func(i int) bool { s.Set(i); return true })
	return s
}

// TestPromotionBoundary walks a Flat across the sorted-array/word-array
// boundary and back through clears.
func TestPromotionBoundary(t *testing.T) {
	f := NewFlat()
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
	g := NewFlat()
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

// TestRoundTrip checks the wire format against bitmap's encoder for both
// substrates.
func TestRoundTrip(t *testing.T) {
	defer Use(FlatSubstrate)
	for _, sub := range []Substrate{FlatSubstrate, LinkedSubstrate} {
		Use(sub)
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			ref := bitmap.New()
			for n := 0; n < 200; n++ {
				v := rng.Intn(1 << uint(8+seed))
				s.Set(v)
				ref.Set(v)
			}
			var got, want bytes.Buffer
			if _, err := Write(&got, s); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("substrate %v: encoding differs from bitmap baseline", sub)
			}
			back, err := Read(bufio.NewReader(&got))
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(s) {
				t.Fatalf("substrate %v: round trip lost members", sub)
			}
		}
	}
}

func TestParseSubstrate(t *testing.T) {
	if s, err := ParseSubstrate("flat"); err != nil || s != FlatSubstrate {
		t.Fatalf("flat: %v %v", s, err)
	}
	if s, err := ParseSubstrate("linked"); err != nil || s != LinkedSubstrate {
		t.Fatalf("linked: %v %v", s, err)
	}
	if _, err := ParseSubstrate("mmap"); err == nil {
		t.Fatal("bogus substrate accepted")
	}
	if FlatSubstrate.String() != "flat" || LinkedSubstrate.String() != "linked" {
		t.Fatal("substrate names wrong")
	}
}

// TestFlatTestAllocs pins the query hot path: membership tests must not
// allocate on either representation.
func TestFlatTestAllocs(t *testing.T) {
	dense := NewFlat()
	for i := 0; i < 1024; i++ {
		dense.Set(i)
	}
	sparse := NewFlat()
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
