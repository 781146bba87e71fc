package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pestrie/internal/store"
)

func TestQueryKey(t *testing.T) {
	cases := []struct {
		backend, gen string
		q            Query
		want         string
	}{
		{"app", "g1", Query{Op: "isalias", P: intp(3), Q: intp(7)}, "app|g1|isalias|3|7|"},
		{"app", "g1", Query{Op: "aliases", P: intp(3)}, "app|g1|aliases|3||"},
		{"", "g2", Query{Op: "pointedby", O: intp(0)}, "|g2|pointedby|||0"},
		{"app", "", Query{Op: "pointsto"}, "app||pointsto|||"},
	}
	for _, c := range cases {
		if got := queryKey(c.backend, c.gen, c.q); got != c.want {
			t.Errorf("queryKey(%q,%q,%+v) = %q, want %q", c.backend, c.gen, c.q, got, c.want)
		}
	}
	// Distinct argument positions must never collide.
	a := queryKey("b", "g", Query{Op: "isalias", P: intp(12), Q: intp(3)})
	b := queryKey("b", "g", Query{Op: "isalias", P: intp(1), Q: intp(23)})
	if a == b {
		t.Fatalf("key collision: %q", a)
	}
}

func TestAnswerCacheLRU(t *testing.T) {
	res := func(s string) Result { return Result{IDs: json.RawMessage(s)} }
	// Budget sized to hold roughly 4 entries (each ≈ 96 + small strings).
	c := newAnswerCache(4 * 110)
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("k%d", i), res("[1]"))
	}
	if st := c.stats(); st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("after 4 puts: %+v", st)
	}
	// Touch k0 so k1 is the LRU victim when k4 arrives.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k4", res("[1]"))
	if _, ok := c.get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	if _, ok := c.get("k0"); !ok {
		t.Fatal("recently-used k0 was evicted")
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache over budget: %+v", st)
	}

	// A duplicate put must not double-count bytes.
	before := c.stats().Bytes
	c.put("k0", res("[1]"))
	if after := c.stats().Bytes; after != before {
		t.Fatalf("duplicate put changed bytes %d -> %d", before, after)
	}

	// An entry bigger than the whole budget is refused outright.
	big := make([]byte, 4*110+1)
	c.put("huge", Result{IDs: big})
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry was admitted")
	}
}

func TestAnswerCacheConcurrent(t *testing.T) {
	c := newAnswerCache(1 << 16)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				if i%3 == 0 {
					c.put(k, Result{IDs: json.RawMessage("[2,3]")})
				} else {
					c.get(k)
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if st := c.stats(); st.Bytes > st.Budget {
		t.Fatalf("over budget after concurrent churn: %+v", st)
	}
}

// The three tests below keep the names they had when the answer cache sat
// in a coordinator in front of shard servers. The cache now lives in the
// server, and each test checks the same contract against it.

// postBatch POSTs queries to url's /batch under backend and returns the
// raw reply, failing on any status but 200.
func postBatch(t *testing.T, url, backend string, queries []Query) []byte {
	t.Helper()
	resp, body := postJSON(t, url+"/batch", batchRequest{Backend: backend, Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestCoordinatorByteIdentity: a /batch answered from a warm answer cache
// must be byte-identical to the same batch computed by a second, cold
// server over the same index — across every op, per-query errors and the
// reported generation included.
func TestCoordinatorByteIdentity(t *testing.T) {
	ix := testIndex(t, testPM(7, 150, 40, 900))
	serve := func() (*Server, string) {
		s := New(Options{})
		if err := s.AddIndex("default", ix); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts.URL
	}
	warm, warmURL := serve()
	_, coldURL := serve()

	var queries []Query
	for p := 0; p < 40; p++ {
		queries = append(queries,
			Query{Op: "isalias", P: intp(p), Q: intp((p * 7) % 150)},
			Query{Op: "aliases", P: intp(p * 3)},
			Query{Op: "pointsto", P: intp(p)},
			Query{Op: "pointedby", O: intp(p % 40)},
		)
	}
	// Error answers must round-trip identically too, escapes included.
	queries = append(queries,
		Query{Op: "pointsto", P: intp(ix.NumPointers + 3)},
		Query{Op: "nosuch"},
		Query{Op: `<a&b> "x"`},
		Query{Op: "isalias", P: intp(1)},
	)

	computed := postBatch(t, warmURL, "", queries)
	hits := warm.Stats().Cache.Hits
	cached := postBatch(t, warmURL, "", queries)
	// Every list query is a hit; isalias and errors are never cached.
	if got := warm.Stats().Cache.Hits - hits; got != 3*40 {
		t.Fatalf("second pass hit the cache %d times, want %d", got, 3*40)
	}
	cold := postBatch(t, coldURL, "", queries)
	for _, body := range [][]byte{computed, cached, cold} {
		requireReencodes[BatchResponse](t, body)
	}
	if !bytes.Equal(computed, cold) {
		t.Fatalf("two servers over one index diverge\nwarm %s\ncold %s", computed, cold)
	}
	if !bytes.Equal(cached, cold) {
		t.Fatalf("cache-served reply diverges from a cold server's\nwant %s\ngot  %s", cold, cached)
	}
}

// TestCoordinatorDedupAndCache pins deduplication through the cache: a
// batch is answered in order on one goroutine, so the copies of a query
// after its first inside one batch are answered from the cache, and a
// repeated batch computes nothing at all.
func TestCoordinatorDedupAndCache(t *testing.T) {
	ix := testIndex(t, testPM(9, 100, 25, 500))
	s := New(Options{})
	if err := s.AddIndex("default", ix); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := Query{Op: "aliases", P: intp(4)}
	batch := []Query{q, q, q, {Op: "pointsto", P: intp(8)}}
	raw := postBatch(t, ts.URL, "", batch)
	if st := s.Stats().Cache; st.Puts != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("cache after one batch: %+v, want 2 puts and misses (unique queries), 2 hits (repeats)", st)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	want := []string{
		directIDs(t, ix.ListAliases(4)), directIDs(t, ix.ListAliases(4)),
		directIDs(t, ix.ListAliases(4)), directIDs(t, ix.ListPointsTo(8)),
	}
	for i, res := range br.Results {
		if string(res.IDs) != want[i] {
			t.Fatalf("result %d = %s, want %s", i, res.IDs, want[i])
		}
	}

	// Same batch again: every query is a hit, and nothing new is computed.
	raw2 := postBatch(t, ts.URL, "", batch)
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("cached pass diverges:\n%s\n%s", raw, raw2)
	}
	if st := s.Stats().Cache; st.Puts != 2 || st.Misses != 2 || st.Hits != 6 {
		t.Fatalf("cache after the repeat: %+v, want puts and misses unchanged at 2, 6 hits", st)
	}
}

// TestCoordinatorGenerationInvalidation hot-swaps one of two store-backed
// backends and checks the cache follows the generation with no explicit
// invalidation call anywhere: the swapped backend's first request after a
// Refresh misses and gets the new answer under a new tag, while the
// untouched backend keeps its tag and keeps answering from the cache.
func TestCoordinatorGenerationInvalidation(t *testing.T) {
	dir := t.TempDir()
	app1 := writeStorePes(t, dir, "app", testPM(60, 80, 20, 400))
	lib := writeStorePes(t, dir, "lib", testPM(63, 70, 18, 350))

	st := store.New(store.Options{})
	defer st.Close()
	if _, err := st.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ask := func(backend string) (string, string) {
		t.Helper()
		var br BatchResponse
		if err := json.Unmarshal(postBatch(t, ts.URL, backend, []Query{{Op: "aliases", P: intp(3)}}), &br); err != nil {
			t.Fatal(err)
		}
		return string(br.Results[0].IDs), br.Generation
	}
	wantApp1 := directIDs(t, app1.ListAliases(3))
	wantLib := directIDs(t, lib.ListAliases(3))
	got, genApp := ask("app")
	if got != wantApp1 || genApp == "" {
		t.Fatalf("app answer %s under generation %q, want %s under a tag", got, genApp, wantApp1)
	}
	got, genLib := ask("lib")
	if got != wantLib || genLib == "" {
		t.Fatalf("lib answer %s under generation %q, want %s under a tag", got, genLib, wantLib)
	}

	app2 := writeStorePes(t, dir, "app", testPM(61, 90, 22, 500))
	wantApp2 := directIDs(t, app2.ListAliases(3))
	if wantApp2 == wantApp1 {
		t.Fatal("test matrices produced the same answer; pick different seeds")
	}
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}

	before := s.Stats().Cache
	got, gen := ask("app")
	if got != wantApp2 {
		t.Fatalf("first app answer after refresh %s, want the new generation's %s", got, wantApp2)
	}
	if gen == genApp {
		t.Fatalf("new answer under the old generation tag %q", gen)
	}
	mid := s.Stats().Cache
	if mid.Hits != before.Hits || mid.Misses != before.Misses+1 {
		t.Fatalf("swapped backend's first request: cache %+v -> %+v, want one miss and no hit", before, mid)
	}
	got, gen = ask("lib")
	if got != wantLib || gen != genLib {
		t.Fatalf("untouched lib answer %s under %q, want %s under %q", got, gen, wantLib, genLib)
	}
	if s.Stats().Cache.Hits != mid.Hits+1 {
		t.Fatal("the untouched backend's repeat was not served from the answer cache")
	}
}
