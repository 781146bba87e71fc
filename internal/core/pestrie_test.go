package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pestrie/internal/matrix"
)

// paperPM is the running example of the paper (Table 3). IDs are
// zero-based: p1..p7 = 0..6, o1..o5 = 0..4.
func paperPM() *matrix.PointsTo {
	pm := matrix.New(7, 5)
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

// paperOrder is the object order the paper's walkthrough uses (§3.1).
var paperOrder = []int{0, 1, 2, 3, 4}

func buildPaper(t *testing.T) *Trie {
	t.Helper()
	return Build(paperPM(), &Options{Order: paperOrder})
}

func TestPaperTimestamps(t *testing.T) {
	// Table 5: nodes in pre-order are {o1,p2}=0, p3=1, p4=2, p1=3,
	// {o2,p6}=4, o3=5, p7=6, {o4,p5}=7, o5=8.
	trie := buildPaper(t)
	if trie.NumGroups != 9 {
		t.Fatalf("NumGroups = %d, want 9", trie.NumGroups)
	}
	wantPtr := []int{3, 0, 1, 2, 7, 4, 6} // p1..p7
	for p, want := range wantPtr {
		if got := trie.pointerTS[p]; got != want {
			t.Errorf("timestamp(p%d) = %d, want %d", p+1, got, want)
		}
	}
	wantObj := []int{0, 4, 5, 7, 8} // o1..o5
	for o, want := range wantObj {
		if got := trie.objectTS[o]; got != want {
			t.Errorf("timestamp(o%d) = %d, want %d", o+1, got, want)
		}
	}
	// Largest pre-order timestamps (E) from Table 5, checked through the
	// group structure for the interesting nodes.
	ends := map[int]int{0: 3, 1: 2, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 7, 8: 8}
	for _, g := range trie.groups {
		if want := ends[g.pre]; g.end != want {
			t.Errorf("E of node with I=%d is %d, want %d", g.pre, g.end, want)
		}
	}
}

func TestPaperStructure(t *testing.T) {
	trie := buildPaper(t)
	s := trie.Stats()
	if s.Origins != 5 {
		t.Errorf("origins = %d, want 5", s.Origins)
	}
	// Figure 2: tree edges group1→group3, group3→{p4}, group1→{p1},
	// group4→{p7} (4 total); cross edges o2→g3, o3→g3, o4→{p4}, o5→{p1},
	// o5→g3, o5→{p7} (6 total).
	if s.TreeEdges != 4 {
		t.Errorf("tree edges = %d, want 4", s.TreeEdges)
	}
	if s.CrossEdges != 6 {
		t.Errorf("cross edges = %d, want 6", s.CrossEdges)
	}
}

func TestPaperRectangles(t *testing.T) {
	// Figure 4: seven retained rectangles; the walkthrough prunes
	// <1,1,6,6> as enclosed by <1,2,5,6>.
	trie := buildPaper(t)
	want := map[Rect]bool{
		{X1: 1, X2: 2, Y1: 4, Y2: 4, Case1: true}:  true,
		{X1: 1, X2: 2, Y1: 5, Y2: 6, Case1: true}:  true,
		{X1: 2, X2: 2, Y1: 7, Y2: 7, Case1: true}:  true,
		{X1: 3, X2: 3, Y1: 8, Y2: 8, Case1: true}:  true,
		{X1: 1, X2: 1, Y1: 8, Y2: 8, Case1: true}:  true,
		{X1: 6, X2: 6, Y1: 8, Y2: 8, Case1: true}:  true,
		{X1: 3, X2: 3, Y1: 6, Y2: 6, Case1: false}: true,
	}
	got := trie.Rects()
	if len(got) != len(want) {
		t.Fatalf("got %d rects %v, want 7", len(got), got)
	}
	for _, r := range got {
		if !want[r] {
			t.Errorf("unexpected rectangle %v", r)
		}
	}
	if trie.Pruned != 1 {
		t.Errorf("pruned = %d, want 1 (<1,1,6,6>)", trie.Pruned)
	}
	// §3.4.2: "five of the seven rectangles in Figure 4 are points and one
	// of them is a line".
	s := trie.Stats()
	if s.Points != 5 || s.HLines != 1 || s.FullRects != 1 || s.VLines != 0 {
		t.Errorf("shape split = %d points, %d vlines, %d hlines, %d rects; want 5/0/1/1",
			s.Points, s.VLines, s.HLines, s.FullRects)
	}
}

func TestPaperXiReachability(t *testing.T) {
	// Example 2: p4 does not point to o5 although p4 is plainly reachable
	// from o5 — the ξ-condition must exclude it.
	trie := buildPaper(t)
	pm := paperPM()
	for o := 0; o < pm.NumObjects; o++ {
		reach := trie.xiReachablePointers(o)
		for p := 0; p < pm.NumPointers; p++ {
			if reach[p] != pm.Has(p, o) {
				t.Errorf("ξ-reachable(o%d, p%d) = %v, but PM says %v",
					o+1, p+1, reach[p], pm.Has(p, o))
			}
		}
	}
}

func TestPaperQueries(t *testing.T) {
	trie := buildPaper(t)
	checkIndexAgainstPM(t, trie.Index(), paperPM())
}

func TestPaperFileRoundTrip(t *testing.T) {
	trie := buildPaper(t)
	var buf bytes.Buffer
	n, err := trie.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	if trie.EncodedSize() != n {
		t.Errorf("EncodedSize = %d, want %d", trie.EncodedSize(), n)
	}
	ix, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rectangles() != 7 {
		t.Errorf("loaded %d rectangles, want 7", ix.Rectangles())
	}
	checkIndexAgainstPM(t, ix, paperPM())
}

// checkIndexAgainstPM verifies all four Table-1 queries against brute force
// over the points-to matrix.
func checkIndexAgainstPM(t *testing.T, ix *Index, pm *matrix.PointsTo) {
	t.Helper()
	pmt := pm.Transpose()
	for p := 0; p < pm.NumPointers; p++ {
		for q := 0; q < pm.NumPointers; q++ {
			want := pm.Row(p).Intersects(pm.Row(q))
			if got := ix.IsAlias(p, q); got != want {
				t.Fatalf("IsAlias(%d,%d) = %v, want %v", p, q, got, want)
			}
		}
		// ListPointsTo.
		if got, want := sorted(ix.ListPointsTo(p)), pm.Row(p).Members(); !sameInts(got, want) {
			t.Fatalf("ListPointsTo(%d) = %v, want %v", p, got, want)
		}
		// ListAliases (excluding p itself).
		var want []int
		for q := 0; q < pm.NumPointers; q++ {
			if q != p && pm.Row(p).Intersects(pm.Row(q)) {
				want = append(want, q)
			}
		}
		got := ix.ListAliases(p)
		if hasDuplicates(got) {
			t.Fatalf("ListAliases(%d) has duplicates: %v", p, got)
		}
		if !sameInts(sorted(got), want) {
			t.Fatalf("ListAliases(%d) = %v, want %v", p, sorted(got), want)
		}
	}
	for o := 0; o < pm.NumObjects; o++ {
		got := ix.ListPointedBy(o)
		if hasDuplicates(got) {
			t.Fatalf("ListPointedBy(%d) has duplicates: %v", o, got)
		}
		if want := pmt.Row(o).Members(); !sameInts(sorted(got), want) {
			t.Fatalf("ListPointedBy(%d) = %v, want %v", o, sorted(got), want)
		}
	}
	// Out-of-range queries are empty/false, never panics.
	if ix.IsAlias(-1, 0) || ix.IsAlias(0, pm.NumPointers) {
		t.Fatal("out-of-range IsAlias returned true")
	}
	if ix.ListAliases(-1) != nil || ix.ListPointsTo(pm.NumPointers) != nil || ix.ListPointedBy(-1) != nil {
		t.Fatal("out-of-range list query returned data")
	}
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

func hasDuplicates(xs []int) bool {
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

func randomPM(rng *rand.Rand, np, no, edges int) *matrix.PointsTo {
	pm := matrix.New(np, no)
	for i := 0; i < edges; i++ {
		pm.Add(rng.Intn(np), rng.Intn(no))
	}
	return pm
}

func randomOrder(rng *rand.Rand, m int) []int {
	order := rng.Perm(m)
	return order
}

func TestQuickTheorem1(t *testing.T) {
	// ξ-reachability over the raw graph equals the points-to relation,
	// for arbitrary matrices and arbitrary object orders.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(30), 1+rng.Intn(15)
		pm := randomPM(rng, np, no, rng.Intn(150))
		trie := Build(pm, &Options{Order: randomOrder(rng, no)})
		for o := 0; o < no; o++ {
			reach := trie.xiReachablePointers(o)
			for p := 0; p < np; p++ {
				if reach[p] != pm.Has(p, o) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(25), 1+rng.Intn(12)
		pm := randomPM(rng, np, no, rng.Intn(120))
		trie := Build(pm, nil) // hub order
		return indexMatches(trie.Index(), pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFileRoundTripMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(25), 1+rng.Intn(12)
		pm := randomPM(rng, np, no, rng.Intn(120))
		trie := Build(pm, &Options{Order: randomOrder(rng, no)})
		var buf bytes.Buffer
		if _, err := trie.WriteTo(&buf); err != nil {
			return false
		}
		ix, err := Load(&buf)
		if err != nil {
			return false
		}
		return indexMatches(ix, pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOptionsPreserveAnswers(t *testing.T) {
	// Pruning off and object merging on must not change any query answer.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(20), 1+rng.Intn(10)
		pm := randomPM(rng, np, no, rng.Intn(100))
		order := randomOrder(rng, no)
		for _, opts := range []*Options{
			{Order: order, DisablePruning: true},
			{Order: order, MergeEquivalentObjects: true},
			{Order: order, DisablePruning: true, MergeEquivalentObjects: true},
		} {
			if !indexMatches(Build(pm, opts).Index(), pm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func indexMatches(ix *Index, pm *matrix.PointsTo) bool {
	pmt := pm.Transpose()
	for p := 0; p < pm.NumPointers; p++ {
		if !sameInts(sorted(ix.ListPointsTo(p)), pm.Row(p).Members()) {
			return false
		}
		var aliases []int
		for q := 0; q < pm.NumPointers; q++ {
			want := pm.Row(p).Intersects(pm.Row(q))
			if ix.IsAlias(p, q) != want {
				return false
			}
			if q != p && want {
				aliases = append(aliases, q)
			}
		}
		got := ix.ListAliases(p)
		if hasDuplicates(got) || !sameInts(sorted(got), aliases) {
			return false
		}
	}
	for o := 0; o < pm.NumObjects; o++ {
		got := ix.ListPointedBy(o)
		if hasDuplicates(got) || !sameInts(sorted(got), pmt.Row(o).Members()) {
			return false
		}
	}
	return true
}

func TestQuickTheorem2NoPartialOverlap(t *testing.T) {
	// Retained rectangles never partially overlap: any two are disjoint
	// (enclosure is impossible among retained ones since enclosed
	// candidates are pruned).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(25), 1+rng.Intn(12)
		pm := randomPM(rng, np, no, rng.Intn(150))
		trie := Build(pm, &Options{Order: randomOrder(rng, no)})
		rects := trie.Rects()
		for i := 0; i < len(rects); i++ {
			if !canonical(rects[i]) {
				return false
			}
			for j := i + 1; j < len(rects); j++ {
				if overlaps(rects[i], rects[j]) {
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

func TestQuickPruningOnlyDropsEnclosed(t *testing.T) {
	// Every rectangle generated with pruning disabled must be covered by
	// some retained rectangle of the pruned build (same order).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(20), 1+rng.Intn(10)
		pm := randomPM(rng, np, no, rng.Intn(100))
		order := randomOrder(rng, no)
		pruned := Build(pm, &Options{Order: order})
		full := Build(pm, &Options{Order: order, DisablePruning: true})
		if full.Pruned != 0 || full.Candidates != pruned.Candidates {
			return false
		}
		for _, r := range full.Rects() {
			covered := false
			for _, k := range pruned.Rects() {
				if encloses(k, r) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrix(t *testing.T) {
	pm := matrix.New(0, 0)
	trie := Build(pm, nil)
	if trie.NumGroups != 0 {
		t.Fatalf("NumGroups = %d", trie.NumGroups)
	}
	var buf bytes.Buffer
	if _, err := trie.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix.IsAlias(0, 0) {
		t.Fatal("alias in empty index")
	}
}

func TestNoFactsMatrix(t *testing.T) {
	pm := matrix.New(5, 3) // pointers and objects but no facts
	trie := Build(pm, nil)
	if trie.NumGroups != 3 { // one origin per object, no pointer groups
		t.Fatalf("NumGroups = %d, want 3", trie.NumGroups)
	}
	ix := trie.Index()
	checkIndexAgainstPM(t, ix, pm)
	for _, ts := range trie.PointerTimestamps() {
		if ts != -1 {
			t.Fatal("unplaced pointer has a timestamp")
		}
	}
}

func TestSinglePointerSingleObject(t *testing.T) {
	pm := matrix.New(1, 1)
	pm.Add(0, 0)
	ix := Build(pm, nil).Index()
	checkIndexAgainstPM(t, ix, pm)
	if !ix.IsAlias(0, 0) {
		t.Fatal("self-alias of placed pointer should hold")
	}
}

func TestAllPointersEquivalent(t *testing.T) {
	// Every pointer points to every object: one group should hold them
	// all and no rectangle is needed beyond cross-PES pairs.
	pm := matrix.New(6, 3)
	for p := 0; p < 6; p++ {
		for o := 0; o < 3; o++ {
			pm.Add(p, o)
		}
	}
	trie := Build(pm, nil)
	checkIndexAgainstPM(t, trie.Index(), pm)
	// Three origins plus the single shared pointer group that the second
	// step extracts from the first origin.
	if trie.NumGroups != 4 {
		t.Errorf("NumGroups = %d, want 4", trie.NumGroups)
	}
}

func TestMergeEquivalentObjectsShrinks(t *testing.T) {
	pm := matrix.New(4, 6)
	// Objects 0..2 all pointed by {0,1}; objects 3..5 by {2,3}.
	for o := 0; o < 3; o++ {
		pm.Add(0, o)
		pm.Add(1, o)
	}
	for o := 3; o < 6; o++ {
		pm.Add(2, o)
		pm.Add(3, o)
	}
	plain := Build(pm, &Options{Order: []int{0, 1, 2, 3, 4, 5}})
	merged := Build(pm, &Options{Order: []int{0, 1, 2, 3, 4, 5}, MergeEquivalentObjects: true})
	if merged.NumGroups >= plain.NumGroups {
		t.Errorf("merging did not shrink groups: %d vs %d", merged.NumGroups, plain.NumGroups)
	}
	if merged.NumGroups != 2 {
		t.Errorf("merged NumGroups = %d, want 2", merged.NumGroups)
	}
	checkIndexAgainstPM(t, merged.Index(), pm)
	var buf bytes.Buffer
	if _, err := merged.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAgainstPM(t, ix, pm)
}

func TestBuildPanicsOnBadOrder(t *testing.T) {
	pm := paperPM()
	for _, order := range [][]int{
		{0, 1, 2},        // wrong length
		{0, 1, 2, 3, 3},  // duplicate
		{0, 1, 2, 3, 5},  // out of range
		{-1, 1, 2, 3, 4}, // negative
	} {
		order := order
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build with order %v did not panic", order)
				}
			}()
			Build(pm, &Options{Order: order})
		}()
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("PES1"),         // truncated after magic
		[]byte("PES1\x02"),     // bad version
		[]byte("PES1\x01\x05"), // truncated counts
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("Load accepted %q", c)
		}
	}
	// Truncate a valid file at every prefix length; Load must error, not
	// panic or succeed (any strict prefix is missing data).
	var buf bytes.Buffer
	if _, err := buildPaper(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("Load accepted %d-byte prefix of a %d-byte file", n, len(full))
		}
	}
}

func TestFileDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Build(paperPM(), nil).WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(paperPM(), nil).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two builds of the same matrix produced different files")
	}
}

func TestHubOrderBeatsWorstRandom(t *testing.T) {
	// §5.2/§7.2: the hub-degree order should generally produce no more
	// cross edges than an adversarial shuffle. Use a skewed matrix where
	// hubs matter and compare against the mean of several random orders.
	rng := rand.New(rand.NewSource(11))
	pm := matrix.New(200, 40)
	for p := 0; p < 200; p++ {
		pm.Add(p, rng.Intn(3)) // three heavy hubs
		for k := 0; k < 3; k++ {
			pm.Add(p, 3+rng.Intn(37))
		}
	}
	hub := Build(pm, nil)
	total := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		total += Build(pm, &Options{Order: randomOrder(rng, 40)}).CrossEdges
	}
	if avg := total / trials; hub.CrossEdges > avg {
		t.Errorf("hub order cross edges %d > random average %d", hub.CrossEdges, avg)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	ix := buildPaper(t).Index()
	if ix.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint not positive")
	}
}
