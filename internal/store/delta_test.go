package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/matrix"
)

// editableBase builds a .pes next to which delta segments can be written:
// the raw image, the matrix it encodes, and the path.
func editableBase(t testing.TB, dir string, seed int64, np, no, edges int) (string, *matrix.PointsTo) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pm := matrix.New(np, no)
	for i := 0; i < edges; i++ {
		pm.Add(rng.Intn(np), rng.Intn(no))
	}
	var buf bytes.Buffer
	if _, err := core.Build(pm, nil).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.pes")
	writePes(t, path, buf.Bytes())
	return path, pm
}

// appendSegment diffs cur against an n-flip edit, stamps it onto the chain
// after parent, writes it next to base, and returns the edited matrix.
func appendSegment(t testing.TB, base string, cur *matrix.PointsTo, seed int64, n int, gen uint64) *matrix.PointsTo {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	next := cur.Clone()
	for i := 0; i < n; i++ {
		p, o := rng.Intn(next.NumPointers), rng.Intn(next.NumObjects)
		if next.Has(p, o) {
			next.Remove(p, o)
		} else {
			next.Add(p, o)
		}
	}
	seg, err := delta.Diff(cur, next)
	if err != nil {
		t.Fatal(err)
	}
	if seg == nil {
		t.Fatal("edit produced no diff")
	}
	seg.Gen, seg.Parent = gen, gen-1
	hint, err := delta.FileHint(base)
	if err != nil {
		t.Fatal(err)
	}
	seg.BaseHint = hint
	if err := delta.WriteSegmentFile(delta.SegmentPath(base, gen), seg); err != nil {
		t.Fatal(err)
	}
	return next
}

// pointsToOf answers one row in sorted order, whatever order the backing
// generation stores it in.
func pointsToOf(ix delta.Index, p int) []int {
	out := append([]int(nil), ix.ListPointsTo(p)...)
	sort.Ints(out)
	return out
}

// TestRefreshAppliesDeltaWithoutReload is the acceptance path: a segment
// appearing next to a loaded base advances the served stamp via Refresh
// with no base reload — loads stays 1, applies counts up — while a handle
// pinned before the refresh keeps its generation's answers.
func TestRefreshAppliesDeltaWithoutReload(t *testing.T) {
	dir := t.TempDir()
	path, pm := editableBase(t, dir, 60, 80, 20, 400)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", path); err != nil {
		t.Fatal(err)
	}
	hOld, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if hOld.Stamp() != 0 {
		t.Fatalf("fresh base stamp = %d", hOld.Stamp())
	}

	next := appendSegment(t, path, pm, 61, 40, 1)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	hNew, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if hNew.Stamp() != 1 {
		t.Fatalf("stamp after delta refresh = %d, want 1", hNew.Stamp())
	}
	if hOld.Stamp() != 0 {
		t.Fatalf("pinned handle moved to stamp %d", hOld.Stamp())
	}
	// Both generations answer their own matrix.
	for p := 0; p < pm.NumPointers; p++ {
		if !equalInts(pointsToOf(hOld.Index(), p), pm.Row(p).Members()) {
			t.Fatalf("pinned handle: ListPointsTo(%d) no longer matches the base", p)
		}
		if !equalInts(pointsToOf(hNew.Index(), p), next.Row(p).Members()) {
			t.Fatalf("refreshed handle: ListPointsTo(%d) does not match the edit", p)
		}
	}

	st := s.Snapshot()
	e := st.Backends[0]
	if e.Loads != 1 {
		t.Fatalf("loads = %d: the delta apply re-decoded the base", e.Loads)
	}
	if e.Applies != 1 || st.Applies != 1 {
		t.Fatalf("applies = %d/%d, want 1/1", e.Applies, st.Applies)
	}
	if e.Swaps != 0 {
		t.Fatalf("swaps = %d: the delta apply counted as a hot-swap", e.Swaps)
	}
	if e.Stamp != 1 || e.DeltaChain != 1 {
		t.Fatalf("monitoring stamp/chain = %d/%d, want 1/1", e.Stamp, e.DeltaChain)
	}
	if len(e.Lineage) != 2 || e.Lineage[0] != 0 || e.Lineage[1] != 1 {
		t.Fatalf("lineage = %v, want [0 1]", e.Lineage)
	}
	if e.ApplyLatency.Count != 1 {
		t.Fatalf("apply latency count = %d", e.ApplyLatency.Count)
	}

	// A second segment extends the already-extended generation.
	appendSegment(t, path, next, 62, 40, 2)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Backends[0]; got.Stamp != 2 || got.Applies != 2 || got.Loads != 1 {
		t.Fatalf("after second segment: stamp=%d applies=%d loads=%d", got.Stamp, got.Applies, got.Loads)
	}

	// A refresh with nothing new applies nothing.
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Backends[0]; got.Applies != 2 {
		t.Fatalf("no-op refresh applied a delta: applies=%d", got.Applies)
	}
	hOld.Release()
	hNew.Release()
}

// TestColdLoadAppliesChain: an Acquire that first touches a file with
// segments already next to it serves the chain head immediately.
func TestColdLoadAppliesChain(t *testing.T) {
	dir := t.TempDir()
	path, pm := editableBase(t, dir, 70, 60, 15, 280)
	next := appendSegment(t, path, pm, 71, 30, 1)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", path); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Stamp() != 1 {
		t.Fatalf("cold load stamp = %d, want 1", h.Stamp())
	}
	for p := 0; p < next.NumPointers; p++ {
		if !equalInts(pointsToOf(h.Index(), p), next.Row(p).Members()) {
			t.Fatalf("cold chain load: ListPointsTo(%d) diverged", p)
		}
	}
	if e := s.Snapshot().Backends[0]; e.Applies != 0 || e.DeltaChain != 1 {
		t.Fatalf("cold load counters: applies=%d chain=%d", e.Applies, e.DeltaChain)
	}
}

// TestRefreshIgnoresMismatchedChain: segments hinting at a different base
// are not applied, and the reason lands in ChainNote.
func TestRefreshIgnoresMismatchedChain(t *testing.T) {
	dir := t.TempDir()
	path, pm := editableBase(t, dir, 80, 50, 12, 200)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", path); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()

	seg, err := delta.Diff(pm, func() *matrix.PointsTo {
		m := pm.Clone()
		m.Add(0, 0)
		return m
	}())
	if err != nil || seg == nil {
		t.Fatalf("diff: %v %v", seg, err)
	}
	seg.Gen, seg.Parent, seg.BaseHint = 1, 0, 0x1234 // wrong base
	if err := delta.WriteSegmentFile(delta.SegmentPath(path, 1), seg); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	e := s.Snapshot().Backends[0]
	if e.Applies != 0 || e.Stamp != 0 {
		t.Fatalf("mismatched chain applied: applies=%d stamp=%d", e.Applies, e.Stamp)
	}
}

// TestRefreshOpensOnlyNewSegments: Refresh reads only the segments named
// past the served head, so an applied segment deleted from the middle of
// the chain does not stop the next one from applying, and the entry still
// answers the head's facts with no base reload.
func TestRefreshOpensOnlyNewSegments(t *testing.T) {
	dir := t.TempDir()
	path, cur := editableBase(t, dir, 90, 60, 15, 280)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", path); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	for gen := uint64(1); gen <= 3; gen++ {
		cur = appendSegment(t, path, cur, 90+int64(gen), 20, gen)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(delta.SegmentPath(path, 2)); err != nil {
		t.Fatal(err)
	}
	cur = appendSegment(t, path, cur, 94, 20, 4)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if e := s.Snapshot().Backends[0]; e.Stamp != 4 || e.Applies != 4 || e.Loads != 1 {
		t.Fatalf("after the gap: stamp=%d applies=%d loads=%d, want 4/4/1", e.Stamp, e.Applies, e.Loads)
	}
	h, err = s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for p := 0; p < cur.NumPointers; p++ {
		if !equalInts(pointsToOf(h.Index(), p), cur.Row(p).Members()) {
			t.Fatalf("ListPointsTo(%d) does not match generation 4", p)
		}
	}
}

// TestStoreRetainsOnlyServedGeneration applies 300 segments through
// Refresh, one a refresh, as an incremental writer feeds a served chain.
// The store must keep only the head it serves, not every generation it
// applied: the heap it holds above the loaded base stays within 2× of what
// it charges above the base charge.
func TestStoreRetainsOnlyServedGeneration(t *testing.T) {
	const segments = 300
	path, cur := editableBase(t, t.TempDir(), 100, 3000, 2000, 12000)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", path); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	heap0, charged0 := heap(), s.Snapshot().Backends[0].Bytes
	for gen := uint64(1); gen <= segments; gen++ {
		cur = appendSegment(t, path, cur, 100+int64(gen), 32, gen)
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	held := heap() - heap0
	runtime.KeepAlive(cur) // the test holds one matrix at both readings
	e := s.Snapshot().Backends[0]
	if e.Stamp != segments || e.Applies != segments {
		t.Fatalf("stamp=%d applies=%d, want %d", e.Stamp, e.Applies, segments)
	}
	charged := e.Bytes - charged0
	t.Logf("%d segments: heap %d bytes above the loaded base, %d charged (%.2fx)",
		segments, held, charged, float64(held)/float64(charged))
	if held > 2*charged {
		t.Fatalf("the store holds %d bytes above the loaded base but charges %d: more than 2x", held, charged)
	}
}

// BenchmarkIdleRefresh times a Refresh that finds nothing new on disk,
// the steady state of a polling store, over a 3,000×2,000 base serving a
// chain of 10 or 300 32-flip segments.
func BenchmarkIdleRefresh(b *testing.B) {
	for _, segments := range []int{10, 300} {
		b.Run(fmt.Sprintf("segs=%d", segments), func(b *testing.B) {
			path, cur := editableBase(b, b.TempDir(), 110, 3000, 2000, 12000)
			for gen := uint64(1); gen <= uint64(segments); gen++ {
				cur = appendSegment(b, path, cur, 110+int64(gen), 32, gen)
			}
			s := New(Options{})
			defer s.Close()
			if err := s.Add("a", path); err != nil {
				b.Fatal(err)
			}
			h, err := s.Acquire(context.Background(), "a")
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
			if st := h.Stamp(); st != uint64(segments) {
				b.Fatalf("serving stamp %d, want %d", st, segments)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRefreshPinsTheGenerationItExtends: eviction must not free the
// generation a Refresh is extending. Under a one-byte budget every Release
// evicts the entry. Each round pins the entry, publishes a segment over
// its mapped PES2 base, starts a Refresh, and releases the pin once the
// refresh has picked the entry up; an extend over the evicted generation
// would read its unmapped base.
func TestRefreshPinsTheGenerationItExtends(t *testing.T) {
	dir := t.TempDir()
	_, cur := editableBase(t, dir, 120, 2000, 1000, 20000)
	var buf bytes.Buffer
	if _, err := core.Build(cur, nil).Index().WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "b.pes")
	writePes(t, path, buf.Bytes())
	s := New(Options{MemBudget: 1})
	defer s.Close()
	if err := s.Add("b", path); err != nil {
		t.Fatal(err)
	}
	e := s.entries["b"]
	picked := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return e.swapping
	}
	const rounds = 20
	for gen := uint64(1); gen <= rounds; gen++ {
		h, err := s.Acquire(context.Background(), "b")
		if err != nil {
			t.Fatal(err)
		}
		cur = appendSegment(t, path, cur, 120+int64(gen), 2000, gen)
		refreshed := make(chan error, 1)
		go func() { refreshed <- s.Refresh() }()
		for !picked() && len(refreshed) == 0 {
			runtime.Gosched()
		}
		h.Release()
		if err := <-refreshed; err != nil {
			t.Fatal(err)
		}
	}
	h, err := s.Acquire(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Stamp() != rounds {
		t.Fatalf("stamp %d, want %d", h.Stamp(), rounds)
	}
	for p := 0; p < cur.NumPointers; p += 7 {
		if !equalInts(pointsToOf(h.Index(), p), cur.Row(p).Members()) {
			t.Fatalf("ListPointsTo(%d) does not match generation %d", p, rounds)
		}
	}
}
