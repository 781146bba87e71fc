package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/matrix"
)

// pesBytes encodes a random matrix into a .pes image plus its directly
// decoded reference index. The reference's ID text table is built, as the
// store builds it when it loads a generation, so its MemoryFootprint is
// what the store charges for the image.
func pesBytes(t *testing.T, seed int64, np, no, edges int) ([]byte, *core.Index) {
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
	ix, err := core.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ix.BuildIDText()
	return buf.Bytes(), ix
}

func writePes(t testing.TB, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sameAnswers checks a handful of queries against the reference index.
func sameAnswers(t *testing.T, got delta.Index, want *core.Index) {
	t.Helper()
	if got.Pointers() != want.NumPointers || got.Objects() != want.NumObjects {
		t.Fatalf("dimensions diverged: got %d×%d, want %d×%d",
			got.Pointers(), got.Objects(), want.NumPointers, want.NumObjects)
	}
	for p := 0; p < want.NumPointers; p++ {
		q := (p * 7) % want.NumPointers
		if got.IsAlias(p, q) != want.IsAlias(p, q) {
			t.Fatalf("IsAlias(%d,%d) diverged", p, q)
		}
		if !equalInts(got.ListPointsTo(p), want.ListPointsTo(p)) {
			t.Fatalf("ListPointsTo(%d) diverged", p)
		}
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

func TestLazyLoadHitAndCounters(t *testing.T) {
	dir := t.TempDir()
	raw, ref := pesBytes(t, 1, 80, 20, 400)
	writePes(t, filepath.Join(dir, "a.pes"), raw)

	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", filepath.Join(dir, "a.pes")); err != nil {
		t.Fatal(err)
	}
	// Nothing decoded before the first Acquire.
	if st := s.Snapshot(); st.LoadedEntries != 0 || st.Loads != 0 {
		t.Fatalf("pre-acquire snapshot: %+v", st)
	}
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), ref)
	if h.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", h.Generation())
	}
	h.Release()
	h.Release() // idempotent

	h2, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()

	st := s.Snapshot()
	if st.Loads != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("loads=%d misses=%d hits=%d, want 1/1/1", st.Loads, st.Misses, st.Hits)
	}
	e := st.Backends[0]
	if !e.Loaded || e.Bytes != ref.MemoryFootprint() || e.Pinned != 0 {
		t.Fatalf("entry snapshot: %+v", e)
	}
	// The charge includes the ID text table the store built at load.
	bare, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes <= bare.MemoryFootprint() {
		t.Fatalf("charged %d bytes, no more than the index without its text table (%d)", e.Bytes, bare.MemoryFootprint())
	}
	if e.Pointers != ref.NumPointers || e.Rectangles != ref.Rectangles() {
		t.Fatalf("entry dims: %+v", e)
	}
	if e.LoadLatency.Count != 1 || e.LoadLatency.MaxNS <= 0 {
		t.Fatalf("load latency not recorded: %+v", e.LoadLatency)
	}
}

func TestUnknownBackend(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	_, err := s.Acquire(context.Background(), "nope")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestSingleflightDedupsConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	raw, ref := pesBytes(t, 2, 100, 25, 600)
	writePes(t, filepath.Join(dir, "a.pes"), raw)
	s := New(Options{})
	defer s.Close()
	if err := s.Add("a", filepath.Join(dir, "a.pes")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := s.Acquire(context.Background(), "a")
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			if h.Index().Pointers() != ref.NumPointers {
				t.Error("wrong index")
			}
		}()
	}
	wg.Wait()
	if st := s.Snapshot(); st.Loads != 1 {
		t.Fatalf("loads = %d, want 1 (singleflight)", st.Loads)
	}
}

func TestBudgetEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	var refs []*core.Index
	names := []string{"a", "b", "c"}
	var foot int64
	for i, name := range names {
		raw, ref := pesBytes(t, int64(10+i), 90, 22, 500)
		writePes(t, filepath.Join(dir, name+".pes"), raw)
		refs = append(refs, ref)
		foot = ref.MemoryFootprint()
	}
	// Budget fits roughly one index: serving all three forces eviction.
	s := New(Options{MemBudget: foot + foot/2})
	defer s.Close()
	for _, name := range names {
		if err := s.Add(name, filepath.Join(dir, name+".pes")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i, name := range names {
			h, err := s.Acquire(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, h.Index(), refs[i])
			h.Release()
		}
	}
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a budget smaller than the working set")
	}
	if st.LoadedBytes > s.opts.MemBudget {
		t.Fatalf("loaded bytes %d exceed budget %d with nothing pinned", st.LoadedBytes, s.opts.MemBudget)
	}
	if st.Loads <= 3 {
		t.Fatalf("loads = %d, want reloads after eviction", st.Loads)
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	dir := t.TempDir()
	rawA, refA := pesBytes(t, 20, 90, 22, 500)
	rawB, _ := pesBytes(t, 21, 90, 22, 500)
	writePes(t, filepath.Join(dir, "a.pes"), rawA)
	writePes(t, filepath.Join(dir, "b.pes"), rawB)
	s := New(Options{MemBudget: 1}) // every load overshoots the budget
	defer s.Close()
	_ = s.Add("a", filepath.Join(dir, "a.pes"))
	_ = s.Add("b", filepath.Join(dir, "b.pes"))

	ha, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	// Loading b pressures the budget, but a is pinned: it must survive.
	hb, err := s.Acquire(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	hb.Release()
	st := s.Snapshot()
	for _, e := range st.Backends {
		if e.Name == "a" && !e.Loaded {
			t.Fatal("pinned entry was evicted")
		}
	}
	sameAnswers(t, ha.Index(), refA)
	ha.Release()
	// With the pin gone, release-time eviction brings the store under
	// budget (nothing can be resident at budget 1).
	if st := s.Snapshot(); st.LoadedEntries != 0 {
		t.Fatalf("loaded entries = %d after releasing all pins", st.LoadedEntries)
	}
}

func TestHotSwapOnRefresh(t *testing.T) {
	dir := t.TempDir()
	raw1, ref1 := pesBytes(t, 30, 70, 18, 350)
	raw2, ref2 := pesBytes(t, 31, 75, 19, 400)
	path := filepath.Join(dir, "a.pes")
	writePes(t, path, raw1)
	s := New(Options{})
	defer s.Close()
	_ = s.Add("a", path)

	hOld, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged file: Refresh must be a no-op.
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.Swaps != 0 {
		t.Fatalf("swaps = %d after no-op refresh", st.Swaps)
	}

	writePes(t, path, raw2)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	hNew, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	// The held handle still answers from the old generation; the new
	// acquire sees the new one.
	sameAnswers(t, hOld.Index(), ref1)
	sameAnswers(t, hNew.Index(), ref2)
	if hOld.Checksum() == hNew.Checksum() {
		t.Fatal("checksum did not change across swap")
	}
	if hNew.Generation() != hOld.Generation()+1 {
		t.Fatalf("generations %d -> %d, want +1", hOld.Generation(), hNew.Generation())
	}
	st := s.Snapshot()
	if st.Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", st.Swaps)
	}
	// Old generation still pinned: its bytes stay charged.
	if st.LoadedBytes != ref1.MemoryFootprint()+ref2.MemoryFootprint() {
		t.Fatalf("charged %d, want old+new while old is pinned", st.LoadedBytes)
	}
	hOld.Release()
	if st := s.Snapshot(); st.LoadedBytes != ref2.MemoryFootprint() {
		t.Fatalf("charged %d after releasing old, want just new", st.LoadedBytes)
	}
	hNew.Release()
}

func TestAddDirAndRefreshPicksUpNewFiles(t *testing.T) {
	dir := t.TempDir()
	raw, _ := pesBytes(t, 40, 50, 12, 200)
	writePes(t, filepath.Join(dir, "one.pes"), raw)
	writePes(t, filepath.Join(dir, "ignored.txt"), []byte("not a pes"))
	s := New(Options{})
	defer s.Close()
	n, err := s.AddDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("AddDir added %d, want 1", n)
	}
	writePes(t, filepath.Join(dir, "two.pes"), raw)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("names = %v, want [one two]", names)
	}
	h, err := s.Acquire(context.Background(), "two")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

func TestLoadErrorsSurfaceAndRecover(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pes")
	s := New(Options{})
	defer s.Close()
	_ = s.Add("a", path)

	if _, err := s.Acquire(context.Background(), "a"); err == nil {
		t.Fatal("acquire of missing file succeeded")
	}
	writePes(t, path, []byte("garbage, not a pes file"))
	if _, err := s.Acquire(context.Background(), "a"); err == nil {
		t.Fatal("acquire of corrupt file succeeded")
	}
	if st := s.Snapshot(); st.Backends[0].LastError == "" {
		t.Fatal("load error not surfaced in snapshot")
	}
	raw, ref := pesBytes(t, 50, 40, 10, 150)
	writePes(t, path, raw)
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), ref)
	h.Release()
	if st := s.Snapshot(); st.Backends[0].LastError != "" {
		t.Fatalf("stale load error %q after recovery", st.Backends[0].LastError)
	}

	// A refresh that cannot re-load the rewritten file surfaces the error
	// and keeps serving the loaded generation; the next good swap clears it.
	writePes(t, path, []byte("garbage again"))
	if err := s.Refresh(); err == nil {
		t.Fatal("refresh of a corrupt file succeeded")
	}
	if st := s.Snapshot(); st.Backends[0].LastError == "" || st.Swaps != 0 {
		t.Fatalf("failed refresh: last error %q, %d swaps", st.Backends[0].LastError, st.Swaps)
	}
	raw2, ref2 := pesBytes(t, 51, 45, 12, 140)
	writePes(t, path, raw2)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.Backends[0].LastError != "" || st.Swaps != 1 {
		t.Fatalf("after a good swap: last error %q, %d swaps", st.Backends[0].LastError, st.Swaps)
	}
	h, err = s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), ref2)
	h.Release()
}

func TestBackgroundReloader(t *testing.T) {
	dir := t.TempDir()
	raw1, _ := pesBytes(t, 60, 60, 15, 300)
	raw2, ref2 := pesBytes(t, 61, 65, 16, 320)
	path := filepath.Join(dir, "a.pes")
	writePes(t, path, raw1)
	s := New(Options{ReloadInterval: 5 * time.Millisecond})
	defer s.Close()
	_ = s.Add("a", path)
	h, err := s.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	writePes(t, path, raw2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := s.Acquire(context.Background(), "a")
		if err != nil {
			t.Fatal(err)
		}
		np := h.Index().Pointers()
		h.Release()
		if np == ref2.NumPointers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background reloader never hot-swapped the rewritten file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"4096", 4096},
		{"64MiB", 64 << 20},
		{"64MB", 64 << 20},
		{"64M", 64 << 20},
		{"64m", 64 << 20},
		{"2GiB", 2 << 30},
		{"512KiB", 512 << 10},
		{"1.5K", 1536},
		{"100B", 100},
		{" 8 KiB ", 8 << 10},
	} {
		got, err := ParseBytes(tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-5", "MiB", "12XB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

// TestVersionTag pins the content-addressed Handle.VersionTag contract:
// stable across acquires, identical for identical bytes under different
// names, and changed by a hot swap of one file only.
func TestVersionTag(t *testing.T) {
	dir := t.TempDir()
	raw1, _ := pesBytes(t, 31, 70, 18, 350)
	writePes(t, filepath.Join(dir, "a.pes"), raw1)
	writePes(t, filepath.Join(dir, "twin.pes"), raw1)

	s := New(Options{})
	defer s.Close()
	for _, name := range []string{"a", "twin"} {
		if err := s.Add(name, filepath.Join(dir, name+".pes")); err != nil {
			t.Fatal(err)
		}
	}
	tagOf := func(name string) string {
		t.Helper()
		h, err := s.Acquire(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		return h.VersionTag()
	}

	tagA := tagOf("a")
	if tagA == "" {
		t.Fatal("empty version tag")
	}
	if got := tagOf("a"); got != tagA {
		t.Fatalf("tag unstable across acquires: %q vs %q", got, tagA)
	}
	// Identical bytes get identical tags regardless of catalog name.
	if got := tagOf("twin"); got != tagA {
		t.Fatalf("identical files tagged differently: %q vs %q", got, tagA)
	}

	// A hot swap changes the tag.
	raw2, _ := pesBytes(t, 32, 80, 20, 420)
	writePes(t, filepath.Join(dir, "a.pes"), raw2)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	tagA2 := tagOf("a")
	if tagA2 == tagA {
		t.Fatalf("hot swap kept tag %q", tagA)
	}
	// The twin was untouched; its tag must not move.
	if got := tagOf("twin"); got != tagA {
		t.Fatalf("untouched twin's tag moved: %q vs %q", got, tagA)
	}
}

// TestStoreAddIndexResidentPinned pins the contract of resident entries: a
// resident index survives a 1-byte budget that evicts every file entry and
// a Refresh, is charged to loaded_bytes, answers under its "s:<dims>" tag,
// and owns its name against later Add and AddIndex calls.
func TestStoreAddIndexResidentPinned(t *testing.T) {
	dir := t.TempDir()
	raw, _ := pesBytes(t, 41, 60, 15, 300)
	writePes(t, filepath.Join(dir, "file.pes"), raw)
	_, ix := pesBytes(t, 42, 70, 18, 350)

	s := New(Options{MemBudget: 1})
	defer s.Close()
	if err := s.AddIndex("res", ix); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("file", filepath.Join(dir, "file.pes")); err != nil {
		t.Fatal(err)
	}
	wantTag := fmt.Sprintf("s:%d.%d.%d.%d", ix.NumPointers, ix.NumObjects, ix.NumGroups, ix.Rectangles())
	check := func(when string) {
		t.Helper()
		h, err := s.Acquire(context.Background(), "res")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if h.VersionTag() != wantTag {
			t.Fatalf("%s: tag %q, want %q", when, h.VersionTag(), wantTag)
		}
		sameAnswers(t, h.Index(), ix)
		snap := s.Snapshot()
		res := snap.Backends[1]
		if res.Name != "res" || !res.Loaded || res.Evictions != 0 || res.Loads != 0 || res.Generation != 1 {
			t.Fatalf("%s: resident entry %+v", when, res)
		}
		if snap.LoadedBytes < ix.MemoryFootprint() {
			t.Fatalf("%s: loaded_bytes %d does not charge the resident's %d", when, snap.LoadedBytes, ix.MemoryFootprint())
		}
	}
	check("after AddIndex")

	h, err := s.Acquire(context.Background(), "file")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if snap := s.Snapshot(); snap.Backends[0].Loaded || snap.Backends[0].Evictions != 1 {
		t.Fatalf("the 1-byte budget kept the file entry: %+v", snap.Backends[0])
	}
	check("after the budget evicted the file entry")

	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	check("after Refresh")

	for _, err := range []error{s.AddIndex("res", ix), s.Add("res", filepath.Join(dir, "file.pes"))} {
		if !errors.Is(err, ErrDuplicate) {
			t.Fatalf("re-registering a resident name: %v, want ErrDuplicate", err)
		}
	}
	if err := s.AddIndex("", ix); err == nil {
		t.Fatal("AddIndex accepted an empty name")
	}
	if err := s.AddIndex("nil", nil); err == nil {
		t.Fatal("AddIndex accepted a nil index")
	}
}
