package matrix

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// paperPM builds the sample points-to matrix of Table 3:
//
//	      o1 o2 o3 o4 o5
//	p1     1  0  0  0  1
//	p2     1  0  0  0  0
//	p3     1  1  1  0  1
//	p4     1  1  1  1  0
//	p5     0  0  0  1  0
//	p6     0  1  0  0  0
//	p7     0  0  1  0  1
//
// Pointer/object IDs are zero-based (p1 = 0, o1 = 0, ...).
func paperPM() *PointsTo {
	pm := New(7, 5)
	facts := [][2]int{
		{0, 0}, {0, 4},
		{1, 0},
		{2, 0}, {2, 1}, {2, 2}, {2, 4},
		{3, 0}, {3, 1}, {3, 2}, {3, 3},
		{4, 3},
		{5, 1},
		{6, 2}, {6, 4},
	}
	for _, f := range facts {
		pm.Add(f[0], f[1])
	}
	return pm
}

func TestAddHas(t *testing.T) {
	pm := paperPM()
	if !pm.Has(0, 0) || !pm.Has(6, 4) {
		t.Fatal("missing facts")
	}
	if pm.Has(0, 1) || pm.Has(4, 0) {
		t.Fatal("spurious facts")
	}
	if pm.Has(-1, 0) || pm.Has(0, -1) || pm.Has(100, 0) {
		t.Fatal("out-of-range Has should be false")
	}
	if pm.Edges() != 15 {
		t.Fatalf("Edges = %d, want 15", pm.Edges())
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	pm := New(2, 2)
	for _, f := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d,%d) did not panic", f[0], f[1])
				}
			}()
			pm.Add(f[0], f[1])
		}()
	}
}

func TestTranspose(t *testing.T) {
	pm := paperPM()
	pmt := pm.Transpose()
	if pmt.NumPointers != 5 || pmt.NumObjects != 7 {
		t.Fatalf("transpose dims %d×%d", pmt.NumPointers, pmt.NumObjects)
	}
	// Table 3 transpose row o1 = {p1,p2,p3,p4}.
	want := []int{0, 1, 2, 3}
	got := pmt.Row(0).Members()
	if len(got) != len(want) {
		t.Fatalf("PMT[o1] = %v, want %v", got, want)
	}
	// Transposing twice must recover the original.
	if !pm.Equal(pmt.Transpose()) {
		t.Fatal("double transpose != identity")
	}
}

// TestTransposeEmptyAndEdgeCases covers degenerate shapes: no pointers, no
// objects, a single cell, and more objects than pointers.
func TestTransposeEmptyAndEdgeCases(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {2, 7}} {
		pm := New(dims[0], dims[1])
		if dims[0] > 0 && dims[1] > 0 {
			pm.Add(0, 0)
		}
		pmt := pm.Transpose()
		if pmt.NumPointers != dims[1] || pmt.NumObjects != dims[0] {
			t.Fatalf("dims %v: transpose is %d×%d", dims, pmt.NumPointers, pmt.NumObjects)
		}
		if pmt.Edges() != pm.Edges() || pmt.Has(0, 0) != pm.Has(0, 0) {
			t.Fatalf("dims %v: transpose facts differ", dims)
		}
		if !pm.Equal(pmt.Transpose()) {
			t.Fatalf("dims %v: double transpose != identity", dims)
		}
	}
}

func TestAliasMatrix(t *testing.T) {
	pm := paperPM()
	am := pm.AliasMatrix()
	// p1 points to {o1,o5}: aliases = pointers touching o1 or o5 =
	// {p1,p2,p3,p4,p7}.
	want := []int{0, 1, 2, 3, 6}
	got := am.Row(0).Members()
	if len(got) != len(want) {
		t.Fatalf("AM[p1] = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AM[p1] = %v, want %v", got, want)
		}
	}
	// p5 points only to o4, shared with p4.
	if !am.Has(4, 3) || !am.Has(3, 4) {
		t.Fatal("AM misses (p5,p4)")
	}
	if am.Has(4, 0) {
		t.Fatal("AM spurious (p5,p1)")
	}
	// AM must be symmetric.
	for p := 0; p < pm.NumPointers; p++ {
		for q := 0; q < pm.NumPointers; q++ {
			if am.Has(p, q) != am.Has(q, p) {
				t.Fatalf("AM not symmetric at (%d,%d)", p, q)
			}
		}
	}
}

func TestHubDegrees(t *testing.T) {
	pm := paperPM()
	pmt := pm.Transpose()
	deg := pm.HubDegrees(pmt)
	// |PM| sizes: p1=2 p2=1 p3=4 p4=4 p5=1 p6=1 p7=2.
	// H_o1 = sqrt(2²+1²+4²+4²) = sqrt(37).
	wants := []float64{
		math.Sqrt(4 + 1 + 16 + 16), // o1: p1,p2,p3,p4
		math.Sqrt(16 + 16 + 1),     // o2: p3,p4,p6
		math.Sqrt(16 + 16 + 4),     // o3: p3,p4,p7
		math.Sqrt(16 + 1),          // o4: p4,p5
		math.Sqrt(4 + 16 + 4),      // o5: p1,p3,p7
	}
	for o, w := range wants {
		if math.Abs(deg[o]-w) > 1e-9 {
			t.Errorf("H_o%d = %g, want %g", o+1, deg[o], w)
		}
	}
	// By Definition 1 the order is o1 (√37), o3 (√36), o2 (√33), o5 (√24),
	// o4 (√17). (The paper's §3.1 walkthrough uses o1..o5 for exposition.)
	order := pm.HubOrder(pmt)
	want := []int{0, 2, 1, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("HubOrder = %v, want %v", order, want)
		}
	}
}

func TestPointedByCounts(t *testing.T) {
	pm := paperPM()
	got := pm.PointedByCounts()
	want := []int{4, 3, 3, 2, 3}
	for o := range want {
		if got[o] != want[o] {
			t.Fatalf("PointedByCounts = %v, want %v", got, want)
		}
	}
}

func TestEquivalenceClasses(t *testing.T) {
	pm := New(5, 3)
	// p0, p2 identical; p1, p4 identical; p3 empty.
	pm.Add(0, 0)
	pm.Add(0, 1)
	pm.Add(2, 0)
	pm.Add(2, 1)
	pm.Add(1, 2)
	pm.Add(4, 2)
	classOf, n := pm.EquivalenceClasses()
	if n != 3 {
		t.Fatalf("numClasses = %d, want 3", n)
	}
	if classOf[0] != classOf[2] || classOf[1] != classOf[4] {
		t.Fatalf("classOf = %v: equivalent pointers split", classOf)
	}
	if classOf[0] == classOf[1] || classOf[3] == classOf[0] || classOf[3] == classOf[1] {
		t.Fatalf("classOf = %v: distinct pointers merged", classOf)
	}
}

func TestObjectEquivalenceClasses(t *testing.T) {
	pm := New(3, 4)
	// o0, o1 pointed by {p0}; o2 pointed by {p1,p2}; o3 by nobody.
	pm.Add(0, 0)
	pm.Add(0, 1)
	pm.Add(1, 2)
	pm.Add(2, 2)
	classOf, n := pm.ObjectEquivalenceClasses()
	if n != 3 {
		t.Fatalf("numClasses = %d, want 3", n)
	}
	if classOf[0] != classOf[1] {
		t.Fatal("equivalent objects split")
	}
	if classOf[2] == classOf[0] || classOf[3] == classOf[0] {
		t.Fatal("distinct objects merged")
	}
}

func TestCharacterize(t *testing.T) {
	pm := paperPM()
	c := Characterize(pm, 3)
	if c.Pointers != 7 || c.Objects != 5 || c.Edges != 15 {
		t.Fatalf("dims wrong: %+v", c)
	}
	if c.PointerClasses != 7 { // all rows distinct in the paper example
		t.Errorf("PointerClasses = %d, want 7", c.PointerClasses)
	}
	if c.ObjectClasses != 5 {
		t.Errorf("ObjectClasses = %d, want 5", c.ObjectClasses)
	}
	if c.PointerRatio != 1 || c.ObjectRatio != 1 {
		t.Errorf("ratios = %g/%g, want 1/1", c.PointerRatio, c.ObjectRatio)
	}
	// All five hub degrees exceed 3 (smallest is sqrt(17) ≈ 4.12).
	if c.FracAboveThreshold != 1 {
		t.Errorf("FracAboveThreshold = %g, want 1", c.FracAboveThreshold)
	}
	if len(c.HubQuantiles) == 0 {
		t.Error("no hub quantiles")
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	c := Characterize(New(0, 0), 0)
	if c.Pointers != 0 || c.Objects != 0 {
		t.Fatalf("unexpected: %+v", c)
	}
}

func TestCloneIndependence(t *testing.T) {
	pm := paperPM()
	cl := pm.Clone()
	cl.Add(4, 0)
	if pm.Has(4, 0) {
		t.Fatal("Clone shares storage")
	}
	if !pm.Equal(paperPM()) {
		t.Fatal("original mutated")
	}
}

func TestIORoundTrip(t *testing.T) {
	pm := paperPM()
	var buf bytes.Buffer
	n, err := pm.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(pm) {
		t.Fatal("round trip mismatch")
	}
}

func TestIOEmptyMatrix(t *testing.T) {
	pm := New(3, 2) // no facts
	var buf bytes.Buffer
	if _, err := pm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(pm) || got.Edges() != 0 {
		t.Fatal("empty matrix round trip mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("BOGUS"))); err == nil {
		t.Fatal("accepted bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
	// Out-of-range object in a row.
	pm := New(1, 10)
	pm.Add(0, 9)
	var buf bytes.Buffer
	if _, err := pm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the declared object count down to 5 by rebuilding the header.
	bad := append([]byte("PTM1"), 1, 5)
	bad = append(bad, buf.Bytes()[6:]...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted out-of-range object id")
	}
}

func randomPM(rng *rand.Rand, np, no, edges int) *PointsTo {
	pm := New(np, no)
	for i := 0; i < edges; i++ {
		pm.Add(rng.Intn(np), rng.Intn(no))
	}
	return pm
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := randomPM(rng, 1+rng.Intn(40), 1+rng.Intn(40), rng.Intn(200))
		return pm.Equal(pm.Transpose().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAliasMatrixDefinition(t *testing.T) {
	// AM[p][q] ⇔ points-to sets of p and q intersect.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(25), 1+rng.Intn(25)
		pm := randomPM(rng, np, no, rng.Intn(150))
		am := pm.AliasMatrix()
		for p := 0; p < np; p++ {
			for q := 0; q < np; q++ {
				want := pm.Row(p).Intersects(pm.Row(q))
				if am.Has(p, q) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := randomPM(rng, 1+rng.Intn(50), 1+rng.Intn(50), rng.Intn(300))
		var buf bytes.Buffer
		if _, err := pm.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && got.Equal(pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEquivalenceIsCongruence(t *testing.T) {
	// Pointers in the same class must have equal rows; in different
	// classes, unequal rows.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 2 + rng.Intn(30)
		pm := randomPM(rng, np, 1+rng.Intn(10), rng.Intn(60))
		classOf, _ := pm.EquivalenceClasses()
		for p := 0; p < np; p++ {
			for q := p + 1; q < np; q++ {
				if (classOf[p] == classOf[q]) != pm.Row(p).Equal(pm.Row(q)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTruncationSweep checks that every strict prefix of valid .ptm
// and raw exports errors instead of decoding or panicking.
func TestReadTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pm := randomPM(rng, 50, 20, 300)
	for name, enc := range map[string]struct {
		write func(*PointsTo, *bytes.Buffer) error
		read  func([]byte) error
	}{
		"ptm": {
			func(pm *PointsTo, buf *bytes.Buffer) error { _, err := pm.WriteTo(buf); return err },
			func(data []byte) error { _, err := Read(bytes.NewReader(data)); return err },
		},
		"raw": {
			func(pm *PointsTo, buf *bytes.Buffer) error { _, err := pm.WriteRaw(buf); return err },
			func(data []byte) error { _, err := ReadRaw(bytes.NewReader(data)); return err },
		},
	} {
		var full bytes.Buffer
		if err := enc.write(pm, &full); err != nil {
			t.Fatal(err)
		}
		data := full.Bytes()
		if err := enc.read(data); err != nil {
			t.Fatalf("%s: full file must read: %v", name, err)
		}
		for cut := 0; cut < len(data); cut++ {
			if err := enc.read(data[:cut]); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", name, cut, len(data))
			}
		}
	}
}

// TestReadAllocationBomb feeds truncated headers claiming 2²⁷ rows; the
// decoders must fail without allocating anywhere near the claim.
func TestReadAllocationBomb(t *testing.T) {
	var ptm bytes.Buffer
	ptm.WriteString(matrixMagic)
	var b [binary.MaxVarintLen64]byte
	for _, v := range []uint64{1 << 27, 1 << 27} {
		n := binary.PutUvarint(b[:], v)
		ptm.Write(b[:n])
	}
	var raw bytes.Buffer
	for _, v := range []uint32{1 << 27, 1 << 27} {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		raw.Write(w[:])
	}
	for name, read := range map[string]func([]byte) error{
		"ptm": func(data []byte) error { _, err := Read(bytes.NewReader(data)); return err },
		"raw": func(data []byte) error { _, err := ReadRaw(bytes.NewReader(data)); return err },
	} {
		data := ptm.Bytes()
		if name == "raw" {
			data = raw.Bytes()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := read(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted truncated file claiming 2^27 rows", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("%s: decoding a %d-byte bomb allocated %d bytes", name, len(data), grew)
		}
	}
}
