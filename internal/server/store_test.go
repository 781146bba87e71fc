package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/matrix"
	"pestrie/internal/store"
)

// writeStorePes persists a matrix to dir/name.pes and returns the
// reference index decoded directly from the same bytes.
func writeStorePes(t *testing.T, dir, name string, pm *matrix.PointsTo) *core.Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.Build(pm, nil).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".pes"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestStoreBackedServer drives the acceptance scenario: a server whose
// store budget is smaller than the sum of all index footprints must answer
// queries for every catalogued backend (evicting and reloading as needed)
// byte-identically to direct core.Index calls, and /debug/store must
// expose the churn.
func TestStoreBackedServer(t *testing.T) {
	dir := t.TempDir()
	names := []string{"alpha", "beta", "gamma"}
	refs := map[string]*core.Index{}
	var foot int64
	for i, name := range names {
		refs[name] = writeStorePes(t, dir, name, testPM(int64(40+i), 100, 25, 550))
		foot = refs[name].MemoryFootprint()
	}

	st := store.New(store.Options{MemBudget: foot + foot/2})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for round := 0; round < 3; round++ {
		for _, name := range names {
			ref := refs[name]
			for p := 0; p < ref.NumPointers; p += 11 {
				resp, body := postJSON(t, ts.URL+"/query",
					queryRequest{Backend: name, Query: Query{Op: "aliases", P: intp(p)}})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s aliases(%d): status %d: %s", name, p, resp.StatusCode, body)
				}
				var res Result
				if err := json.Unmarshal(body, &res); err != nil {
					t.Fatal(err)
				}
				if string(res.IDs) != directIDs(t, ref.ListAliases(p)) {
					t.Fatalf("%s aliases(%d): served %s, direct %s", name, p, res.IDs, directIDs(t, ref.ListAliases(p)))
				}
			}
			// Batches pin one generation for their whole duration.
			queries := []Query{
				{Op: "pointsto", P: intp(1)},
				{Op: "pointedby", O: intp(2)},
				{Op: "isalias", P: intp(0), Q: intp(3)},
			}
			resp, body := postJSON(t, ts.URL+"/batch", batchRequest{Backend: name, Queries: queries})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s batch: status %d: %s", name, resp.StatusCode, body)
			}
			var br BatchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				t.Fatal(err)
			}
			if string(br.Results[0].IDs) != directIDs(t, ref.ListPointsTo(1)) {
				t.Fatalf("%s batch pointsto diverged", name)
			}
		}
	}

	// The budget forced churn, visible at /debug/store.
	resp, err := http.Get(ts.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var snap store.Stats
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Entries != 3 || snap.Evictions == 0 || snap.Loads <= 3 {
		t.Fatalf("store snapshot shows no churn: %+v", snap)
	}
	for _, e := range snap.Backends {
		if e.Hits+e.Misses == 0 {
			t.Fatalf("backend %s never queried: %+v", e.Name, e)
		}
	}

	// Query stats accumulated on the dynamic backends too.
	stats := s.Stats()
	if stats.Backends["alpha"]["aliases"].Count == 0 {
		t.Fatalf("no aliases stats for store backend: %+v", stats.Backends["alpha"])
	}

	// /backends lists every catalogued backend, sorted by name.
	bs := s.Backends()
	if len(bs) != 3 {
		t.Fatalf("backends = %+v", bs)
	}
	for i, b := range bs {
		if b.Name != names[i] {
			t.Fatalf("backend %d is %q, want %q", i, b.Name, names[i])
		}
	}
}

// checkFreshAfterRefresh asks q twice through /batch, then calls publish,
// which changes q's answer on disk and returns the new one, and refreshes
// the store: the very first request after that must carry the new answer
// under a new generation tag, with no polling.
func checkFreshAfterRefresh(t *testing.T, st *store.Store, url string, q Query, want string, publish func() string) {
	t.Helper()
	ask := func() (string, string) {
		t.Helper()
		// Empty backend name: the single store entry must resolve.
		resp, body := postJSON(t, url+"/batch", batchRequest{Queries: []Query{q}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		return string(br.Results[0].IDs), br.Generation
	}
	got, gen := ask()
	if got != want || gen == "" {
		t.Fatalf("first answer %s under generation %q, want %s under a tag", got, gen, want)
	}
	if got, _ := ask(); got != want {
		t.Fatalf("repeated answer %s, want %s", got, want)
	}

	want2 := publish()
	if want2 == want {
		t.Fatal("the published change leaves the answer as it was; pick other test data")
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, gen2 := ask()
	if got != want2 {
		t.Fatalf("first answer after refresh %s, want the new generation's %s", got, want2)
	}
	if gen2 == gen {
		t.Fatalf("new answer under the old generation tag %q", gen)
	}
}

// TestStoreHotSwapWithoutRestart rewrites a served file and checks the
// running server answers from the new generation right after a Refresh.
func TestStoreHotSwapWithoutRestart(t *testing.T) {
	dir := t.TempDir()
	ref1 := writeStorePes(t, dir, "app", testPM(60, 80, 20, 400))

	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	checkFreshAfterRefresh(t, st, ts.URL, Query{Op: "aliases", P: intp(3)}, directIDs(t, ref1.ListAliases(3)), func() string {
		ref2 := writeStorePes(t, dir, "app", testPM(61, 90, 22, 500))
		return directIDs(t, ref2.ListAliases(3))
	})
	resp, err := http.Get(ts.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var snap store.Stats
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Swaps != 1 || snap.Backends[0].Generation != 2 {
		t.Fatalf("swap not reflected: %+v", snap)
	}
}

// TestStoreDeltaApplyWithoutRestart publishes a delta segment next to a
// served base and checks the running server answers at the new stamp
// right after a Refresh.
func TestStoreDeltaApplyWithoutRestart(t *testing.T) {
	dir := t.TempDir()
	pm := testPM(62, 80, 20, 400)
	ref := writeStorePes(t, dir, "app", pm)
	base := filepath.Join(dir, "app.pes")

	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const p = 3
	checkFreshAfterRefresh(t, st, ts.URL, Query{Op: "pointsto", P: intp(p)}, directIDs(t, ref.ListPointsTo(p)), func() string {
		next := pm.Clone()
		for o := 0; o < 4; o++ {
			if next.Has(p, o) {
				next.Remove(p, o)
			} else {
				next.Add(p, o)
			}
		}
		seg, err := delta.Diff(pm, next)
		if err != nil {
			t.Fatal(err)
		}
		seg.Gen, seg.Parent = 1, 0
		if seg.BaseHint, err = delta.FileHint(base); err != nil {
			t.Fatal(err)
		}
		if err := delta.WriteSegmentFile(delta.SegmentPath(base, 1), seg); err != nil {
			t.Fatal(err)
		}
		// The reference is the chain head, opened straight from disk.
		head, _, err := delta.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer head.Close()
		return directIDs(t, head.ListPointsTo(p))
	})
	if snap := st.Snapshot(); snap.Backends[0].Applies != 1 || snap.Backends[0].Stamp != 1 {
		t.Fatalf("delta apply not reflected: %+v", snap.Backends[0])
	}
}

// TestStoreResolveErrors pins how resolve failures map to statuses: names
// that no backend answers to are the client's fault (404), a catalogued
// file that fails to decode is the server's (502). A server given no store
// reports unknown names with the store's error, like any other.
func TestStoreResolveErrors(t *testing.T) {
	dir := t.TempDir()
	st := store.New(store.Options{})
	defer st.Close()
	if err := os.WriteFile(filepath.Join(dir, "bad.pes"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	ix := testIndex(t, testPM(63, 20, 6, 60))
	static := New(Options{})
	if err := static.AddIndex("solo", ix); err != nil {
		t.Fatal(err)
	}
	// bad (file) plus solo (resident): an empty name is ambiguous.
	mixed := New(Options{Store: st})
	if err := mixed.AddIndex("solo", ix); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		s       *Server
		backend string
		status  int
		errText string // when set, the reply's error must contain it
	}{
		{"AddIndex-only unknown", static, "ghost", http.StatusNotFound, "store: unknown backend"},
		{"ambiguous empty name", mixed, "", http.StatusNotFound, ""},
		{"store unknown", mixed, "ghost", http.StatusNotFound, "store: unknown backend"},
		{"store corrupt", mixed, "bad", http.StatusBadGateway, ""},
	} {
		ts := httptest.NewServer(tc.s.Handler())
		resp, body := postJSON(t, ts.URL+"/query", queryRequest{Backend: tc.backend, Query: Query{Op: "aliases", P: intp(0)}})
		ts.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if !bytes.Contains(body, []byte(tc.errText)) {
			t.Errorf("%s: reply %s does not contain %q", tc.name, body, tc.errText)
		}
	}
}

// TestStaticAndStoreBackendsCoexist registers in-memory indexes alongside
// a store catalog: AddIndex of a name the catalog already holds fails with
// store.ErrDuplicate and leaves the file entry serving, a new name
// registers, and both kinds resolve and list sorted.
func TestStaticAndStoreBackendsCoexist(t *testing.T) {
	dir := t.TempDir()
	storeRef := writeStorePes(t, dir, "shared", testPM(70, 60, 15, 300))

	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	if err := s.AddIndex("shared", testIndex(t, testPM(71, 50, 12, 250))); !errors.Is(err, store.ErrDuplicate) {
		t.Fatalf("AddIndex over a catalogued name: %v, want store.ErrDuplicate", err)
	}
	staticOnly := testIndex(t, testPM(72, 40, 10, 200))
	if err := s.AddIndex("solo", staticOnly); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, ref := range map[string]*core.Index{"shared": storeRef, "solo": staticOnly} {
		resp, body := postJSON(t, ts.URL+"/query", queryRequest{Backend: name, Query: Query{Op: "aliases", P: intp(2)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if string(res.IDs) != directIDs(t, ref.ListAliases(2)) {
			t.Fatalf("%s answered %s, want %s", name, res.IDs, directIDs(t, ref.ListAliases(2)))
		}
	}
	bs := s.Backends()
	if len(bs) != 2 || bs[0].Name != "shared" || bs[1].Name != "solo" {
		t.Fatalf("backends = %+v, want shared then solo", bs)
	}
}

func TestPprofMount(t *testing.T) {
	_, _, ts := newTestServer(t, Options{EnablePprof: true})
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}

	_, _, tsOff := newTestServer(t, Options{})
	resp, err = http.Get(tsOff.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreServesMappedV2Backend serves a zero-copy PES2 file through the
// store-backed server: answers must match direct Index calls and
// /debug/store must report the generation as mapped at the file's size plus
// its text table.
func TestStoreServesMappedV2Backend(t *testing.T) {
	dir := t.TempDir()
	pm := testPM(77, 120, 30, 700)
	ref := core.Build(pm, nil).Index()
	var buf bytes.Buffer
	if _, err := ref.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "zc.pes")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for p := 0; p < ref.NumPointers; p += 7 {
		resp, body := postJSON(t, ts.URL+"/query",
			queryRequest{Backend: "zc", Query: Query{Op: "pointsto", P: intp(p)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pointsto(%d): status %d: %s", p, resp.StatusCode, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if string(res.IDs) != directIDs(t, ref.ListPointsTo(p)) {
			t.Fatalf("pointsto(%d): served %s, direct %s", p, res.IDs, directIDs(t, ref.ListPointsTo(p)))
		}
	}

	resp, err := http.Get(ts.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var snap store.Stats
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Backends) != 1 {
		t.Fatalf("backends = %+v", snap.Backends)
	}
	be := snap.Backends[0]
	if !be.Loaded || !be.Mapped {
		t.Fatalf("PES2 backend not served mapped: %+v", be)
	}
	// The charge is the file size plus the ID text table built at load.
	mapped, err := core.LoadMapped(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped.BuildIDText()
	if be.Bytes != mapped.MemoryFootprint() || be.Bytes <= int64(buf.Len()) {
		t.Fatalf("mapped backend charged %d bytes, want file size %d plus text table: %d",
			be.Bytes, buf.Len(), mapped.MemoryFootprint())
	}
}

// TestResolveConcurrentRegistration hammers the lazily-registered statsFor
// path: store-backed queries (whose backend shells are created on first
// touch), concurrent AddIndex of new static backends, store eviction
// churn, and stats readers, all at once. The assertions are modest — the
// point is the interleavings, which the -race CI step checks.
func TestResolveConcurrentRegistration(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		writeStorePes(t, dir, fmt.Sprintf("app%d", i), testPM(int64(70+i), 60, 15, 250))
	}
	// A tight budget forces Acquire/evict churn while requests hold pins.
	st := store.New(store.Options{MemBudget: 1 << 15})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	extra := testIndex(t, testPM(99, 40, 10, 150))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("app%d", (w+i)%4)
				resp, body := postJSON(t, ts.URL+"/query", queryRequest{
					Backend: name,
					Query:   Query{Op: "aliases", P: intp(i % 60)},
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %s: status %d: %s", name, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.AddIndex(fmt.Sprintf("static%d", i), extra); err != nil {
				t.Errorf("AddIndex: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Stats()
			s.Backends()
		}
	}()
	wg.Wait()

	st2 := s.Stats()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("app%d", i)
		ops, ok := st2.Backends[name]
		if !ok || ops["aliases"].Count == 0 {
			t.Fatalf("store backend %s has no recorded queries: %+v", name, ops)
		}
	}
	if len(s.Backends()) != 4+20 {
		t.Fatalf("got %d backends, want 24", len(s.Backends()))
	}
}

// TestResolveConcurrentAdoption resolves a store backend while AddIndex
// tries to register an in-memory index under the same name and registers
// new names: the duplicate must fail with store.ErrDuplicate, every answer
// must come from the store's index, and the new names must resolve (the
// -race run checks the interleavings).
func TestResolveConcurrentAdoption(t *testing.T) {
	dir := t.TempDir()
	stored := writeStorePes(t, dir, "app", testPM(80, 60, 15, 250))
	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	static := testIndex(t, testPM(81, 60, 15, 250))
	q := Query{Op: "pointsto", P: intp(5)}
	want := directIDs(t, stored.ListPointsTo(5))
	s := New(Options{Store: st})
	ask := func(name string) string {
		b, h, err := s.resolve(context.Background(), name)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer h.Release()
		return string(s.exec(b, h.Index(), q).IDs)
	}
	for round := 0; round < 20; round++ {
		var running, wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			running.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				stray := 0
				for i := 0; i < 100; i++ {
					if i == 10 {
						running.Done()
					}
					if ask("app") != want {
						stray++
					}
				}
				if stray > 0 {
					t.Errorf("%d pointsto(5) answers did not come from the store's index", stray)
				}
			}()
		}
		running.Wait() // register while the readers are in full swing
		if err := s.AddIndex("app", static); !errors.Is(err, store.ErrDuplicate) {
			t.Errorf("AddIndex over a store name: %v, want store.ErrDuplicate", err)
		}
		name := fmt.Sprintf("extra%d", round)
		if err := s.AddIndex(name, static); err != nil {
			t.Error(err)
		}
		wg.Wait()
		if got, want := ask(name), directIDs(t, static.ListPointsTo(5)); got != want {
			t.Fatalf("%s: pointsto(5) = %s, want the registered index's %s", name, got, want)
		}
	}
}
