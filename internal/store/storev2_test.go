package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
)

// pesBytesV2 encodes a deterministic matrix into a zero-copy PES2 image
// plus its directly decoded reference index.
func pesBytesV2(t *testing.T, np, no int) ([]byte, *core.Index) {
	t.Helper()
	pm := matrix.New(np, no)
	for p := 0; p < np; p++ {
		pm.Add(p, p%no)
		pm.Add(p, (p*3+1)%no)
	}
	ix := core.Build(pm, nil).Index()
	var buf bytes.Buffer
	if _, err := ix.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ix
}

// mappedCharge is what the store charges for a mapped PES2 image: the
// file size plus the ID text table it builds on the heap at load.
func mappedCharge(t *testing.T, raw []byte) int64 {
	t.Helper()
	ix, err := core.LoadMapped(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix.BuildIDText()
	return ix.MemoryFootprint()
}

// TestSingleflightSharesLoadError is the regression test for the error
// side of load deduplication: when N goroutines race Acquire on a cold
// entry whose file fails to load, the file must be attempted exactly once
// and the one failure shared with every waiter — not retried N times.
func TestSingleflightSharesLoadError(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	writePes(t, filepath.Join(dir, "bad.pes"), []byte("not a pes file"))

	s := New(Options{})
	if err := s.Add("bad", filepath.Join(dir, "bad.pes")); err != nil {
		t.Fatal(err)
	}
	loadFailure := errors.New("injected load failure")
	var attempts atomic.Int64
	s.loadFn = func(path string) (*generation, dims, error) {
		attempts.Add(1)
		// Hold the load open until all n acquirers have arrived (each
		// counts one miss before either loading or waiting), so the
		// waiters are provably parked on this load when it fails.
		deadline := time.Now().Add(5 * time.Second)
		for s.Snapshot().Misses < n {
			if time.Now().After(deadline) {
				return nil, dims{}, fmt.Errorf("timed out waiting for %d waiters", n)
			}
			time.Sleep(time.Millisecond)
		}
		return nil, dims{}, loadFailure
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Acquire(context.Background(), "bad")
		}(i)
	}
	wg.Wait()

	if got := attempts.Load(); got != 1 {
		t.Fatalf("corrupt file was loaded %d times, want exactly 1", got)
	}
	for i, err := range errs {
		if !errors.Is(err, loadFailure) {
			t.Fatalf("acquirer %d: error %v does not share the load failure", i, err)
		}
	}
	// The failure must not wedge the entry: a later Acquire retries.
	s.loadFn = nil
	if _, err := s.Acquire(context.Background(), "bad"); err == nil {
		t.Fatal("loading a corrupt file succeeded")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("retry went through the stale loadFn (%d attempts)", got)
	}
}

func TestErrDuplicateSentinel(t *testing.T) {
	dir := t.TempDir()
	raw, _ := pesBytes(t, 11, 40, 10, 100)
	writePes(t, filepath.Join(dir, "a.pes"), raw)

	s := New(Options{})
	if err := s.Add("a", filepath.Join(dir, "a.pes")); err != nil {
		t.Fatal(err)
	}
	err := s.Add("a", filepath.Join(dir, "a.pes"))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second Add: error %v is not ErrDuplicate", err)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("duplicate error %q does not name the backend", err)
	}
	// A directory scan that collides with the explicit Add must tolerate
	// the duplicate (via the sentinel, not string matching) and keep going.
	added, err := s.AddDir(dir)
	if err != nil {
		t.Fatalf("AddDir over a shadowed file: %v", err)
	}
	if added != 0 {
		t.Fatalf("AddDir added %d entries, want 0", added)
	}
}

// TestStoreServesMappedV2 exercises the zero-copy path end to end through
// the store: a PES2 file is mapped rather than decoded, answers queries
// identically, is charged at its file size plus its heap text table, and
// is unmapped on eviction.
func TestStoreServesMappedV2(t *testing.T) {
	dir := t.TempDir()
	raw, ref := pesBytesV2(t, 120, 30)
	writePes(t, filepath.Join(dir, "v2.pes"), raw)

	s := New(Options{})
	if err := s.Add("v2", filepath.Join(dir, "v2.pes")); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Index().Mapped() {
		t.Fatal("PES2 file was decoded onto the heap, not mapped")
	}
	sameAnswers(t, h.Index(), ref)

	st := s.Snapshot()
	if len(st.Backends) != 1 || !st.Backends[0].Mapped {
		t.Fatalf("snapshot does not report the mapped generation: %+v", st.Backends)
	}
	want := mappedCharge(t, raw)
	if want <= int64(len(raw)) {
		t.Fatalf("mapped charge %d does not exceed the file size %d", want, len(raw))
	}
	if st.Backends[0].Bytes != want {
		t.Fatalf("mapped generation charged %d bytes, want file size plus text table %d",
			st.Backends[0].Bytes, want)
	}
	if st.LoadedBytes != want {
		t.Fatalf("store total %d, want %d", st.LoadedBytes, want)
	}
	h.Release()

	// Shrink the budget below the file size and trigger eviction: the
	// mapping must be released and the entry must reload on next use.
	s.opts.MemBudget = int64(len(raw)) - 1
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	st = s.Snapshot()
	if st.Backends[0].Loaded || st.LoadedBytes != 0 {
		t.Fatalf("mapped generation survived eviction: %+v", st.Backends[0])
	}
	s.opts.MemBudget = 0
	h, err = s.Acquire(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, h.Index(), ref)
	h.Release()
	if loads := s.Snapshot().Loads; loads != 2 {
		t.Fatalf("loads = %d, want 2 (initial + post-eviction)", loads)
	}
}

// TestHotSwapV1ToV2 upgrades a backend in place: a decoded PES1 generation
// is hot-swapped for a mapped PES2 one when the file is replaced by
// rename, and pinned readers of the old generation stay valid throughout.
func TestHotSwapV1ToV2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.pes")
	rawV1, refV1 := pesBytes(t, 21, 90, 25, 500)
	writePes(t, path, rawV1)

	s := New(Options{})
	if err := s.Add("m", path); err != nil {
		t.Fatal(err)
	}
	old, err := s.Acquire(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if old.Index().Mapped() {
		t.Fatal("PES1 load came back mapped")
	}

	// Replace by rename — the only safe way to rewrite a file the store
	// may have mapped.
	rawV2, refV2 := pesBytesV2(t, 70, 20)
	tmp := filepath.Join(dir, ".m.pes.tmp")
	writePes(t, tmp, rawV2)
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}

	// The pinned PES1 handle still answers from its old generation.
	sameAnswers(t, old.Index(), refV1)

	fresh, err := s.Acquire(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Index().Mapped() {
		t.Fatal("post-swap generation is not mapped")
	}
	sameAnswers(t, fresh.Index(), refV2)
	if fresh.Generation() <= old.Generation() {
		t.Fatalf("generation did not advance: %d -> %d", old.Generation(), fresh.Generation())
	}
	old.Release()
	fresh.Release()

	st := s.Snapshot()
	if st.Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", st.Swaps)
	}
	if want := mappedCharge(t, rawV2); st.LoadedBytes != want {
		t.Fatalf("after swap and release, total %d, want just the mapped file's charge %d",
			st.LoadedBytes, want)
	}
}
