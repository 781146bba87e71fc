package bitmap

import (
	"math/rand"
	"testing"
)

func benchSets(n, universe int, seed int64) (*Sparse, *Sparse) {
	rng := rand.New(rand.NewSource(seed))
	a, b := New(), New()
	for i := 0; i < n; i++ {
		a.Set(rng.Intn(universe))
		b.Set(rng.Intn(universe))
	}
	return a, b
}

func BenchmarkSet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = rng.Intn(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, v := range idx {
			s.Set(v)
		}
	}
}

func BenchmarkTestRandom(b *testing.B) {
	s, _ := benchSets(1024, 1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Test(i % (1 << 16))
	}
}

func BenchmarkOr(b *testing.B) {
	x, y := benchSets(1024, 1<<16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Copy()
		c.Or(y)
	}
}

func BenchmarkIntersects(b *testing.B) {
	x, y := benchSets(256, 1<<18, 4) // likely disjoint: worst case scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func BenchmarkSerialize(b *testing.B) {
	s, _ := benchSets(4096, 1<<18, 5)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AppendTo(buf[:0])
	}
}
