package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pestrie"
	"pestrie/internal/delta"
	"pestrie/internal/server"
	"pestrie/internal/store"
)

func writeTestMatrix(t *testing.T, dir string) string {
	t.Helper()
	return writeMatrix(t, filepath.Join(dir, "m.ptm"), [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}})
}

// writeMatrix writes a 6-pointer × 3-object matrix holding facts to path.
func writeMatrix(t *testing.T, path string, facts [][2]int) string {
	t.Helper()
	pm := pestrie.NewMatrix(6, 3)
	for _, f := range facts {
		pm.Add(f[0], f[1])
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEncodeInfoQuery(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	pes := filepath.Join(dir, "m.pes")

	if err := encode([]string{"-in", ptm, "-out", pes}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := os.Stat(pes); err != nil {
		t.Fatalf("no output file: %v", err)
	}
	if err := info([]string{"-in", pes}); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, args := range [][]string{
		{"-in", pes, "-op", "isalias", "-p", "0", "-q", "1"},
		{"-in", pes, "-op", "aliases", "-p", "0"},
		{"-in", pes, "-op", "pointsto", "-p", "2"},
		{"-in", pes, "-op", "pointedby", "-o", "1"},
	} {
		if err := query(args); err != nil {
			t.Fatalf("query %v: %v", args, err)
		}
	}
}

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = saved
	w.Close()
	printed := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(printed)
}

// TestQueryAt answers pointedby at the base, at a middle stamp, past the
// head and at head, over a base with a two-segment chain beside it; an
// -at that is not a stamp is an error.
func TestQueryAt(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "app.pes")
	if err := encode([]string{"-in", writeTestMatrix(t, dir), "-out", base}); err != nil {
		t.Fatal(err)
	}
	for i, facts := range [][][2]int{
		{{0, 0}, {0, 1}, {1, 0}, {2, 1}, {3, 1}, {4, 2}},
		{{0, 0}, {0, 1}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 1}},
	} {
		edit := writeMatrix(t, filepath.Join(dir, fmt.Sprintf("edit%d.ptm", i)), facts)
		stdoutOf(t, func() error { return deltaCmd([]string{"-base", base, "-new", edit}) })
	}
	for _, tc := range []struct{ at, want string }{
		{"0", "at generation 0 (chain of 2)\n2 results: [2 3]\n"},
		{"1", "at generation 1 (chain of 2)\n3 results: [0 2 3]\n"},
		{"9", "at generation 2 (chain of 2)\n4 results: [0 2 3 5]\n"},
		{"head", "at generation 2 (chain of 2)\n4 results: [0 2 3 5]\n"},
	} {
		got := stdoutOf(t, func() error { return query([]string{"-in", base, "-op", "pointedby", "-o", "1", "-at", tc.at}) })
		if got != tc.want {
			t.Errorf("query -at %s printed %q, want %q", tc.at, got, tc.want)
		}
	}
	if err := query([]string{"-in", base, "-op", "pointedby", "-o", "1", "-at", "newest"}); err == nil {
		t.Fatal("query -at newest did not fail")
	}
}

func TestEncodeFromFacts(t *testing.T) {
	dir := t.TempDir()
	facts := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(facts, []byte("a O1\nb O1\nc O2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pes := filepath.Join(dir, "f.pes")
	if err := encode([]string{"-facts", facts, "-out", pes}); err != nil {
		t.Fatal(err)
	}
	idx, err := pestrie.LoadFile(pes)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.IsAlias(0, 1) || idx.IsAlias(0, 2) {
		t.Fatal("facts-encoded index wrong")
	}
	// Exactly one of -in/-facts.
	ptm := writeTestMatrix(t, dir)
	if err := encode([]string{"-in", ptm, "-facts", facts, "-out", pes}); err == nil {
		t.Fatal("accepted both -in and -facts")
	}
	if err := encode([]string{"-facts", filepath.Join(dir, "nope"), "-out", pes}); err == nil {
		t.Fatal("accepted missing facts file")
	}
}

func TestVerify(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	pes := filepath.Join(dir, "m.pes")
	if err := encode([]string{"-in", ptm, "-out", pes}); err != nil {
		t.Fatal(err)
	}
	if err := verify([]string{"-pes", pes, "-ptm", ptm}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// A mismatched matrix must fail verification.
	other := filepath.Join(dir, "other.ptm")
	pm := pestrie.NewMatrix(6, 3)
	pm.Add(0, 2)
	f, err := os.Create(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := verify([]string{"-pes", pes, "-ptm", other}); err == nil {
		t.Fatal("verify accepted mismatched matrix")
	}
	if err := verify(nil); err == nil {
		t.Fatal("verify without flags succeeded")
	}
	if err := verify([]string{"-pes", pes, "-ptm", filepath.Join(dir, "nope")}); err == nil {
		t.Fatal("verify with missing matrix succeeded")
	}
}

func TestEncodeVariants(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	for _, extra := range [][]string{
		{"-random-order"},
		{"-merge-objects"},
		{"-no-prune"},
		{"-random-order", "-seed", "9", "-no-prune"},
	} {
		out := filepath.Join(dir, "v.pes")
		args := append([]string{"-in", ptm, "-out", out}, extra...)
		if err := encode(args); err != nil {
			t.Fatalf("encode %v: %v", extra, err)
		}
		idx, err := pestrie.LoadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !idx.IsAlias(0, 1) || idx.IsAlias(0, 2) {
			t.Fatalf("variant %v produced wrong answers", extra)
		}
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	cases := []struct {
		name string
		fn   func([]string) error
		args []string
	}{
		{"encode-missing-flags", encode, nil},
		{"encode-missing-input", encode, []string{"-in", filepath.Join(dir, "nope"), "-out", filepath.Join(dir, "x")}},
		{"encode-bad-matrix", encode, []string{"-in", ptm + "x", "-out", filepath.Join(dir, "x")}},
		{"info-missing-flags", info, nil},
		{"info-missing-file", info, []string{"-in", filepath.Join(dir, "nope")}},
		{"query-missing-flags", query, nil},
		{"query-bad-op", query, []string{"-in", ptm, "-op", "nope"}},
	}
	for _, c := range cases {
		if err := c.fn(c.args); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Query flag validation (needs a real .pes so Load succeeds first).
	pes := filepath.Join(dir, "q.pes")
	if err := encode([]string{"-in", ptm, "-out", pes}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", pes, "-op", "isalias", "-p", "0"},
		{"-in", pes, "-op", "aliases"},
		{"-in", pes, "-op", "pointsto"},
		{"-in", pes, "-op", "pointedby"},
	} {
		if err := query(args); err == nil {
			t.Errorf("query %v: expected error", args)
		}
	}
	// Out-of-range IDs are reported, not answered with empty sets: the
	// test matrix has pointers 0..5 and objects 0..2.
	for _, args := range [][]string{
		{"-in", pes, "-op", "isalias", "-p", "6", "-q", "0"},
		{"-in", pes, "-op", "isalias", "-p", "0", "-q", "6"},
		{"-in", pes, "-op", "aliases", "-p", "6"},
		{"-in", pes, "-op", "pointsto", "-p", "100"},
		{"-in", pes, "-op", "pointedby", "-o", "3"},
	} {
		if err := query(args); err == nil {
			t.Errorf("query %v: out-of-range ID accepted", args)
		}
	}
}

// getJSON decodes the JSON a GET of url answers into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// postBatch POSTs a /batch body to the server at url and returns the
// reply, failing on any status but 200.
func postBatch(t *testing.T, url, batch string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch: status %d body %s", resp.StatusCode, body)
	}
	return body
}

// TestServeRepeatedBatches runs the full serve workflow end to end: encode
// a matrix, build the server from the -in spec, post one fixed /batch five
// times over a real HTTP listener, and hit the single-query and stats
// endpoints.
func TestServeRepeatedBatches(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	pes := filepath.Join(dir, "m.pes")
	if err := encode([]string{"-in", ptm, "-out", pes}); err != nil {
		t.Fatalf("encode: %v", err)
	}

	s, st, err := newServer(pes, "", server.Options{}, store.Options{})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer st.Close()
	bs := s.Backends()
	if len(bs) != 1 || bs[0].Name != "default" {
		t.Fatalf("single unnamed index should register as default, got %+v", bs)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// List queries repeat inside the batch and across the posts.
	batch := `{"queries":[{"op":"aliases","p":0},{"op":"pointsto","p":2},{"op":"isalias","p":0,"q":1},` +
		`{"op":"aliases","p":0},{"op":"pointedby","o":1},{"op":"pointsto","p":2}]}`
	first := postBatch(t, ts.URL, batch)
	for i := 1; i < 5; i++ {
		if body := postBatch(t, ts.URL, batch); !bytes.Equal(body, first) {
			t.Fatalf("post %d answered\n%s\nthe first\n%s", i, body, first)
		}
	}

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"op":"isalias","p":0,"q":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "alias") {
		t.Fatalf("query: status %d body %s", resp.StatusCode, body)
	}

	var stats server.Stats
	getJSON(t, ts.URL+"/debug/stats", &stats)
	if stats.Backends["default"]["batch"].Count != 5 {
		t.Fatalf("batch count = %d, want 5", stats.Backends["default"]["batch"].Count)
	}
}

func TestServeMultipleNamedBackends(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	lib := filepath.Join(dir, "lib.pes")
	app := filepath.Join(dir, "app.pes")
	for _, out := range []string{lib, app} {
		if err := encode([]string{"-in", ptm, "-out", out}); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	s, st, err := newServer("lib="+lib+","+app, "", server.Options{}, store.Options{})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer st.Close()
	names := []string{}
	for _, b := range s.Backends() {
		if !b.Loaded {
			t.Fatalf("-in entry %s not decoded at startup", b.Name)
		}
		names = append(names, b.Name)
	}
	if len(names) != 2 || names[0] != "app" || names[1] != "lib" {
		t.Fatalf("backends = %v, want [app lib]", names)
	}
}

// TestServeSpecErrorNamesEntry pins the error contract of multi-backend
// -in specs: a failing entry must be identified as name=path in the error,
// not reported bare.
func TestServeSpecErrorNamesEntry(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	good := filepath.Join(dir, "good.pes")
	if err := encode([]string{"-in", ptm, "-out", good}); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.pes")
	_, _, err := newServer("lib="+good+",app="+missing, "", server.Options{}, store.Options{})
	if err == nil {
		t.Fatal("spec with missing file accepted")
	}
	if !strings.Contains(err.Error(), "app="+missing) {
		t.Fatalf("error %q does not name the offending entry app=%s", err, missing)
	}
	// Duplicate names are attributed the same way.
	_, _, err = newServer("x="+good+",x="+good, "", server.Options{}, store.Options{})
	if err == nil || !strings.Contains(err.Error(), "x="+good) {
		t.Fatalf("duplicate-name error %q does not name the entry", err)
	}
}

// TestStoreServe builds the store-backed serve configuration against a
// directory of .pes files and issues one query per backend plus the
// store debug endpoint — the CLI face of internal/store.
func TestStoreServe(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	pesDir := filepath.Join(dir, "pes")
	if err := os.Mkdir(pesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lib", "app"} {
		if err := encode([]string{"-in", ptm, "-out", filepath.Join(pesDir, name+".pes")}); err != nil {
			t.Fatal(err)
		}
	}
	s, st, err := newServer("", pesDir, server.Options{}, store.Options{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	names := st.Names()
	if len(names) != 2 || names[0] != "app" || names[1] != "lib" {
		t.Fatalf("catalog = %v, want [app lib]", names)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range names {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"backend":"`+name+`","op":"isalias","p":0,"q":1}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "alias") {
			t.Fatalf("query %s: status %d body %s", name, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"loaded":true`) {
		t.Fatalf("/debug/store: status %d body %s", resp.StatusCode, body)
	}

	// -in specs feed the same catalog, and a broken one fails the build
	// under its name even with a budget set.
	_, _, err = newServer("x=nope", pesDir, server.Options{}, store.Options{MemBudget: 1 << 20})
	if err == nil || !strings.Contains(err.Error(), "x=nope") {
		t.Fatalf("store spec error %q does not name the entry", err)
	}
}

// TestServeInAnswersAtChainHead serves a base with a delta chain beside it
// through -in with no store flags: every /batch reply must be the same
// bytes the same spec gives with -mem-budget 1GiB, answering at the chain
// head. A PES2 -in entry must be served memory-mapped.
func TestServeInAnswersAtChainHead(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	base := filepath.Join(dir, "app.pes")
	zc := filepath.Join(dir, "zc.pes")
	if err := encode([]string{"-in", ptm, "-out", base}); err != nil {
		t.Fatal(err)
	}
	if err := encode([]string{"-in", ptm, "-out", zc, "-v2"}); err != nil {
		t.Fatal(err)
	}
	for i, facts := range [][][2]int{
		{{0, 0}, {0, 1}, {2, 1}, {3, 1}, {4, 2}},
		{{0, 0}, {0, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 1}},
	} {
		edit := writeMatrix(t, filepath.Join(dir, fmt.Sprintf("edit%d.ptm", i)), facts)
		if err := deltaCmd([]string{"-base", base, "-new", edit}); err != nil {
			t.Fatal(err)
		}
	}
	head, _, err := delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	spec := "app=" + base + ",zc=" + zc
	batch := `{"backend":"app","queries":[{"op":"pointsto","p":0},{"op":"aliases","p":0},{"op":"aliases","p":5}]}`
	serve := func(sopts store.Options) (string, []byte) {
		t.Helper()
		s, st, err := newServer(spec, "", server.Options{}, sopts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL, postBatch(t, ts.URL, batch)
	}
	url, plain := serve(store.Options{})
	_, budgeted := serve(store.Options{MemBudget: 1 << 30})
	if !bytes.Equal(plain, budgeted) {
		t.Fatalf("-in without store flags answers\n%s\nbut with -mem-budget 1GiB\n%s", plain, budgeted)
	}

	var br server.BatchResponse
	if err := json.Unmarshal(plain, &br); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("@%d", head.Generation()); !strings.HasSuffix(br.Generation, want) {
		t.Fatalf("reply generation %q, want the chain head %s", br.Generation, want)
	}
	for i, want := range [][]int{head.ListPointsTo(0), head.ListAliases(0), head.ListAliases(5)} {
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(br.Results[i].IDs) != string(raw) {
			t.Fatalf("query %d answered %s, want the chain head's %s", i, br.Results[i].IDs, raw)
		}
	}

	var snap store.Stats
	getJSON(t, url+"/debug/store", &snap)
	for _, e := range snap.Backends {
		if e.Name == "zc" && !(e.Loaded && e.Mapped) {
			t.Fatalf("PES2 -in entry not served mapped: %+v", e)
		}
	}
}
