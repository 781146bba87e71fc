package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pestrie/internal/store"
)

// The three tests below keep the names they had when an answer cache sat
// in a coordinator in front of shard servers. The cache is gone (DESIGN.md,
// "Answers are computed, not cached"); each test checks the contract it
// pinned on the answers themselves.

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

// TestCoordinatorByteIdentity: a /batch answered twice by one server must
// be byte-identical to the same batch answered by a second server over
// the same index — across every op, per-query errors and the reported
// generation included.
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
	_, warmURL := serve()
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
	cached := postBatch(t, warmURL, "", queries)
	cold := postBatch(t, coldURL, "", queries)
	for _, body := range [][]byte{computed, cached, cold} {
		requireReencodes[BatchResponse](t, body)
	}
	if !bytes.Equal(computed, cold) {
		t.Fatalf("two servers over one index diverge\nwarm %s\ncold %s", computed, cold)
	}
	if !bytes.Equal(cached, cold) {
		t.Fatalf("repeated reply diverges from a second server's\nwant %s\ngot  %s", cold, cached)
	}
}

// TestCoordinatorDedupAndCache: every copy of a query repeated inside one
// batch gets the same answer as a direct call, and a repeated batch gets
// the same reply.
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

	raw2 := postBatch(t, ts.URL, "", batch)
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("repeated batch diverges:\n%s\n%s", raw, raw2)
	}
}

// TestCoordinatorGenerationInvalidation hot-swaps one of two store-backed
// backends: the swapped backend's first request after a Refresh gets the
// new answer under a new tag, while the untouched backend keeps its tag
// and its answer.
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

	got, gen := ask("app")
	if got != wantApp2 {
		t.Fatalf("first app answer after refresh %s, want the new generation's %s", got, wantApp2)
	}
	if gen == genApp {
		t.Fatalf("new answer under the old generation tag %q", gen)
	}
	got, gen = ask("lib")
	if got != wantLib || gen != genLib {
		t.Fatalf("untouched lib answer %s under %q, want %s under %q", got, gen, wantLib, genLib)
	}
}
