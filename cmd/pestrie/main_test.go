package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pestrie"
	"pestrie/internal/server"
	"pestrie/internal/store"
)

func writeTestMatrix(t *testing.T, dir string) string {
	t.Helper()
	pm := pestrie.NewMatrix(6, 3)
	for _, f := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}} {
		pm.Add(f[0], f[1])
	}
	path := filepath.Join(dir, "m.ptm")
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

// TestServeAndBenchServe runs the full serve workflow end to end: encode a
// matrix, build the server from the -in spec, drive it over a real HTTP
// listener with a zipf-skewed bench-serve stream, and hit the single-query
// and stats endpoints.
func TestServeAndBenchServe(t *testing.T) {
	dir := t.TempDir()
	ptm := writeTestMatrix(t, dir)
	pes := filepath.Join(dir, "m.pes")
	if err := encode([]string{"-in", ptm, "-out", pes}); err != nil {
		t.Fatalf("encode: %v", err)
	}

	s, err := newQueryServer(pes, server.Options{})
	if err != nil {
		t.Fatalf("newQueryServer: %v", err)
	}
	bs := s.Backends()
	if len(bs) != 1 || bs[0].Name != "default" {
		t.Fatalf("single unnamed index should register as default, got %+v", bs)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := benchServe([]string{
		"-addr", ts.URL, "-in", pes, "-n", "5", "-batch", "20",
		"-concurrency", "2", "-stride", "1", "-zipf", "1.2",
		"-mix", "isalias=50,aliases=20,pointsto=20,pointedby=10",
	}); err != nil {
		t.Fatalf("bench-serve: %v", err)
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

	st := s.Stats()
	if st.Backends["default"]["batch"].Count != 5 {
		t.Fatalf("batch count = %d, want 5", st.Backends["default"]["batch"].Count)
	}
	// Six pointers and three objects under a skewed stream: list queries
	// repeat, so some must be answered from the cache.
	if st.Cache.Hits == 0 {
		t.Fatalf("skewed stream never hit the answer cache: %+v", st.Cache)
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
	s, err := newQueryServer("lib="+lib+","+app, server.Options{})
	if err != nil {
		t.Fatalf("newQueryServer: %v", err)
	}
	names := []string{}
	for _, b := range s.Backends() {
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
	_, err := newQueryServer("lib="+good+",app="+missing, server.Options{})
	if err == nil {
		t.Fatal("spec with missing file accepted")
	}
	if !strings.Contains(err.Error(), "app="+missing) {
		t.Fatalf("error %q does not name the offending entry app=%s", err, missing)
	}
	// Duplicate names are attributed the same way.
	_, err = newQueryServer("x="+good+",x="+good, server.Options{})
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
	s, st, err := newStoreServer("", pesDir, server.Options{}, store.Options{MemBudget: 1 << 20})
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

	// -in specs also feed the store catalog, with the same entry-naming
	// error contract as the eager path.
	_, _, err = newStoreServer("x=nope,x=nope", "", server.Options{}, store.Options{})
	if err == nil || !strings.Contains(err.Error(), "x=nope") {
		t.Fatalf("store spec error %q does not name the entry", err)
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("isalias=70,pointsto=30")
	if err != nil {
		t.Fatal(err)
	}
	if m.IsAlias != 70 || m.PointsTo != 30 || m.Aliases != 0 || m.PointedBy != 0 {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"x=1", "isalias", "isalias=-2", "isalias=zz"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}
