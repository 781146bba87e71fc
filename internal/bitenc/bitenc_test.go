package bitenc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"pestrie/internal/matrix"
)

func randomPM(rng *rand.Rand, np, no, edges int) *matrix.PointsTo {
	pm := matrix.New(np, no)
	for i := 0; i < edges; i++ {
		pm.Add(rng.Intn(np), rng.Intn(no))
	}
	return pm
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
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

func matches(e *Encoding, pm *matrix.PointsTo) bool {
	pmt := pm.Transpose()
	for p := 0; p < pm.NumPointers; p++ {
		if !sameInts(sorted(e.ListPointsTo(p)), pm.Row(p).Members()) {
			return false
		}
		var want []int
		for q := 0; q < pm.NumPointers; q++ {
			alias := pm.Row(p).Intersects(pm.Row(q))
			if e.IsAlias(p, q) != alias {
				return false
			}
			if q != p && alias {
				want = append(want, q)
			}
		}
		if !sameInts(sorted(e.ListAliases(p)), want) {
			return false
		}
	}
	for o := 0; o < pm.NumObjects; o++ {
		if !sameInts(sorted(e.ListPointedBy(o)), pmt.Row(o).Members()) {
			return false
		}
	}
	return true
}

func TestEncodeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pm := randomPM(rng, 30, 12, 150)
	e := Encode(pm)
	if !matches(e, pm) {
		t.Fatal("BitP queries disagree with brute force")
	}
	if e.IsAlias(-1, 0) || e.IsAlias(0, 30) {
		t.Fatal("out-of-range IsAlias")
	}
	if e.ListAliases(-1) != nil || e.ListPointsTo(99) != nil || e.ListPointedBy(-1) != nil {
		t.Fatal("out-of-range list query returned data")
	}
	if e.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint not positive")
	}
}

func TestEquivalenceCompression(t *testing.T) {
	// 100 pointers in 2 classes: the class-level PM must be 2 rows.
	pm := matrix.New(100, 4)
	for p := 0; p < 100; p++ {
		if p%2 == 0 {
			pm.Add(p, 0)
			pm.Add(p, 1)
		} else {
			pm.Add(p, 2)
			pm.Add(p, 3)
		}
	}
	e := Encode(pm)
	if len(e.pm) != 2 {
		t.Fatalf("class PM has %d rows, want 2", len(e.pm))
	}
	if len(e.pmt) != 2 { // objects merge pairwise too
		t.Fatalf("class PM has %d columns, want 2", len(e.pmt))
	}
	if !matches(e, pm) {
		t.Fatal("compressed encoding wrong")
	}
	// The compressed file must be much smaller than the uncompressed AM
	// would suggest: sanity bound only.
	if e.EncodedSize() > 2048 {
		t.Errorf("EncodedSize = %d, suspiciously large", e.EncodedSize())
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pm := randomPM(rng, 25, 10, 120)
	e := Encode(pm)
	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || e.EncodedSize() != n {
		t.Errorf("size accounting wrong: n=%d len=%d enc=%d", n, buf.Len(), e.EncodedSize())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matches(got, pm) {
		t.Fatal("loaded BitP queries disagree with brute force")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, c := range [][]byte{nil, []byte("XXXX"), []byte("BIT1"), []byte("BIT1\x09")} {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("Load accepted %q", c)
		}
	}
	// Any strict prefix of a valid file must fail.
	pm := matrix.New(3, 2)
	pm.Add(0, 0)
	pm.Add(1, 1)
	var buf bytes.Buffer
	if _, err := Encode(pm).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("Load accepted %d-byte prefix", n)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {5, 0}, {0, 5}, {3, 3}} {
		pm := matrix.New(dims[0], dims[1])
		e := Encode(pm)
		if !matches(e, pm) {
			t.Fatalf("degenerate %v wrong", dims)
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !matches(got, pm) {
			t.Fatalf("degenerate %v round trip wrong", dims)
		}
	}
}

func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(30), 1+rng.Intn(15)
		pm := randomPM(rng, np, no, rng.Intn(200))
		e := Encode(pm)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		return matches(e, pm) && matches(loaded, pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadTruncationSweep checks that every strict prefix of a valid BitP
// file — class maps, PM section, AM section — errors instead of decoding
// or panicking.
func TestLoadTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pm := randomPM(rng, 40, 16, 250)
	var full bytes.Buffer
	if _, err := Encode(pm).WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	data := full.Bytes()
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("full file must load: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
}

// TestLoadAllocationBomb feeds a truncated header claiming 2²⁹ pointers;
// the decoder must fail without allocating anywhere near the claim.
func TestLoadAllocationBomb(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(bitMagic)
	var b [binary.MaxVarintLen64]byte
	for _, v := range []uint64{bitVersion, 1 << 29, 1 << 29} {
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a truncated file claiming 2^29 classes")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("decoding a %d-byte bomb allocated %d bytes", buf.Len(), grew)
	}
}
