package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
)

func testPM(seed int64, np, no, edges int) *matrix.PointsTo {
	rng := rand.New(rand.NewSource(seed))
	pm := matrix.New(np, no)
	for i := 0; i < edges; i++ {
		pm.Add(rng.Intn(np), rng.Intn(no))
	}
	return pm
}

// testIndex round-trips through the persistent format so the server under
// test queries a genuinely loaded .pes image, not a construction shortcut.
func testIndex(t testing.TB, pm *matrix.PointsTo) *core.Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.Build(pm, nil).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t *testing.T, opts Options) (*Server, *core.Index, *httptest.Server) {
	t.Helper()
	ix := testIndex(t, testPM(3, 120, 30, 700))
	s := New(opts)
	if err := s.AddIndex("default", ix); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ix, ts
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func intp(v int) *int { return &v }

// requireReencodes decodes a served body into a T and requires that
// json.Encoder writes that value back byte for byte: whatever writes the
// reply, the body must be exactly what encoding/json makes of it.
func requireReencodes[T any](t *testing.T, body []byte) {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served body is not encoding/json's\nserved  %q\nencoded %q", body, want.Bytes())
	}
}

// directIDs is the byte-identical reference: the JSON encoding of the
// exact slice an in-process Index call returns.
func directIDs(t *testing.T, ids []int) string {
	t.Helper()
	raw, err := json.Marshal(ids)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestQueryEndpointsByteIdentical(t *testing.T) {
	_, ix, ts := newTestServer(t, Options{})
	for p := 0; p < ix.NumPointers; p += 7 {
		for _, tc := range []struct {
			q    Query
			want string
		}{
			{Query{Op: "aliases", P: intp(p)}, directIDs(t, ix.ListAliases(p))},
			{Query{Op: "pointsto", P: intp(p)}, directIDs(t, ix.ListPointsTo(p))},
			{Query{Op: "pointedby", O: intp(p % ix.NumObjects)}, directIDs(t, ix.ListPointedBy(p%ix.NumObjects))},
		} {
			resp, body := postJSON(t, ts.URL+"/query", queryRequest{Query: tc.q})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.q.Op, resp.StatusCode, body)
			}
			var res Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if string(res.IDs) != tc.want {
				t.Fatalf("%s(p=%d): served %s, direct call marshals to %s", tc.q.Op, p, res.IDs, tc.want)
			}
		}
		q := (p * 13) % ix.NumPointers
		resp, body := postJSON(t, ts.URL+"/query", queryRequest{Query: Query{Op: "isalias", P: intp(p), Q: intp(q)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("isalias: status %d: %s", resp.StatusCode, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Alias == nil || *res.Alias != ix.IsAlias(p, q) {
			t.Fatalf("isalias(%d,%d): served %v, direct %v", p, q, res.Alias, ix.IsAlias(p, q))
		}
	}
}

// TestBatchMatchesDirectCalls sends one batch twice: both replies must
// match direct Index calls, and the second must be byte-identical to the
// first.
func TestBatchMatchesDirectCalls(t *testing.T) {
	_, ix, ts := newTestServer(t, Options{})
	rng := rand.New(rand.NewSource(5))
	var queries []Query
	var want []string // expected ids encoding, or "alias:<bool>"
	for i := 0; i < 500; i++ {
		p := rng.Intn(ix.NumPointers)
		switch i % 4 {
		case 0:
			q := rng.Intn(ix.NumPointers)
			queries = append(queries, Query{Op: "isalias", P: intp(p), Q: intp(q)})
			want = append(want, fmt.Sprintf("alias:%v", ix.IsAlias(p, q)))
		case 1:
			queries = append(queries, Query{Op: "aliases", P: intp(p)})
			want = append(want, directIDs(t, ix.ListAliases(p)))
		case 2:
			queries = append(queries, Query{Op: "pointsto", P: intp(p)})
			want = append(want, directIDs(t, ix.ListPointsTo(p)))
		default:
			o := rng.Intn(ix.NumObjects)
			queries = append(queries, Query{Op: "pointedby", O: intp(o)})
			want = append(want, directIDs(t, ix.ListPointedBy(o)))
		}
	}
	var first []byte
	for pass := 0; pass < 2; pass++ {
		resp, body := postJSON(t, ts.URL+"/batch", batchRequest{Queries: queries})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, body)
		}
		if pass == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("repeated reply diverges from the first:\n%s\n%s", first, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(queries) {
			t.Fatalf("%d results for %d queries", len(br.Results), len(queries))
		}
		for i, res := range br.Results {
			if res.Err != "" {
				t.Fatalf("query %d: unexpected error %q", i, res.Err)
			}
			got := string(res.IDs)
			if queries[i].Op == "isalias" {
				got = fmt.Sprintf("alias:%v", res.Alias != nil && *res.Alias)
			}
			if got != want[i] {
				t.Fatalf("pass %d, query %d (%s): served %s, direct %s", pass, i, queries[i].Op, got, want[i])
			}
		}
	}
}

// TestConcurrentMixedQueries hammers the server from many goroutines with
// mixed single and batch requests under -race, checking every answer
// against direct Index calls — this is the test that pins down concurrent
// reader safety of core.Index end to end.
func TestConcurrentMixedQueries(t *testing.T) {
	_, ix, ts := newTestServer(t, Options{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				var queries []Query
				for k := 0; k < 40; k++ {
					p := rng.Intn(ix.NumPointers)
					switch k % 4 {
					case 0:
						queries = append(queries, Query{Op: "isalias", P: intp(p), Q: intp(rng.Intn(ix.NumPointers))})
					case 1:
						queries = append(queries, Query{Op: "aliases", P: intp(p)})
					case 2:
						queries = append(queries, Query{Op: "pointsto", P: intp(p)})
					default:
						queries = append(queries, Query{Op: "pointedby", O: intp(rng.Intn(ix.NumObjects))})
					}
				}
				body, _ := json.Marshal(batchRequest{Queries: queries})
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var br BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				for j, res := range br.Results {
					q := queries[j]
					switch q.Op {
					case "isalias":
						if res.Alias == nil || *res.Alias != ix.IsAlias(*q.P, *q.Q) {
							errc <- fmt.Errorf("isalias(%d,%d) diverged under concurrency", *q.P, *q.Q)
							return
						}
					case "aliases":
						if string(res.IDs) != directIDs(t, ix.ListAliases(*q.P)) {
							errc <- fmt.Errorf("aliases(%d) diverged under concurrency", *q.P)
							return
						}
					case "pointsto":
						if string(res.IDs) != directIDs(t, ix.ListPointsTo(*q.P)) {
							errc <- fmt.Errorf("pointsto(%d) diverged under concurrency", *q.P)
							return
						}
					default:
						if string(res.IDs) != directIDs(t, ix.ListPointedBy(*q.O)) {
							errc <- fmt.Errorf("pointedby(%d) diverged under concurrency", *q.O)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestRequestErrors(t *testing.T) {
	s, ix, ts := newTestServer(t, Options{MaxBatch: 10})
	second := testIndex(t, testPM(9, 10, 5, 30))
	if err := s.AddIndex("lib", second); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		url    string
		req    any
		status int
	}{
		"unknown backend": {ts.URL + "/query", queryRequest{Backend: "nope", Query: Query{Op: "isalias", P: intp(0), Q: intp(0)}}, http.StatusNotFound},
		"ambiguous empty": {ts.URL + "/query", queryRequest{Query: Query{Op: "isalias", P: intp(0), Q: intp(0)}}, http.StatusNotFound},
		"unknown op":      {ts.URL + "/query", queryRequest{Backend: "default", Query: Query{Op: "explode", P: intp(0)}}, http.StatusBadRequest},
		"missing id":      {ts.URL + "/query", queryRequest{Backend: "default", Query: Query{Op: "aliases"}}, http.StatusBadRequest},
		"out of range":    {ts.URL + "/query", queryRequest{Backend: "default", Query: Query{Op: "pointsto", P: intp(ix.NumPointers)}}, http.StatusBadRequest},
		"oversized batch": {ts.URL + "/batch", batchRequest{Backend: "default", Queries: make([]Query, 11)}, http.StatusRequestEntityTooLarge},
		// Bodies past the byte limit are refused before they are decoded,
		// whatever they would have decoded to.
		"oversized query body": {ts.URL + "/query", queryRequest{Backend: strings.Repeat("x", 8<<10), Query: Query{Op: "isalias", P: intp(0), Q: intp(0)}}, http.StatusRequestEntityTooLarge},
		"oversized batch body": {ts.URL + "/batch", batchRequest{Backend: "default", Queries: []Query{{Op: strings.Repeat("x", 8<<10)}}}, http.StatusRequestEntityTooLarge},
	} {
		resp, body := postJSON(t, tc.url, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.status, body)
		}
		if name == "unknown op" {
			requireReencodes[Result](t, body)
		}
	}

	// The named second backend still answers.
	resp, body := postJSON(t, ts.URL+"/query", queryRequest{Backend: "lib", Query: Query{Op: "isalias", P: intp(0), Q: intp(1)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lib backend: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchTimeout pins the truncation contract: a batch cut off by the
// request deadline still answers 200, every unfed query carries an
// explicit per-result error (never a silent zero-value Result), the count
// is surfaced in Unanswered, and the canceled opStats counter moves.
func TestBatchTimeout(t *testing.T) {
	s, _, ts := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	queries := make([]Query, 100)
	for i := range queries {
		queries[i] = Query{Op: "aliases", P: intp(i)}
	}
	resp, body := postJSON(t, ts.URL+"/batch", batchRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", resp.StatusCode, body)
	}
	requireReencodes[BatchResponse](t, body)
	var br BatchResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(queries))
	}
	if br.Unanswered == 0 {
		t.Fatalf("a 1ns deadline answered all %d queries; Unanswered = 0", len(queries))
	}
	marked := 0
	for _, r := range br.Results {
		if strings.Contains(r.Err, "unanswered") {
			marked++
			if r.IDs != nil || r.Alias != nil {
				t.Fatalf("unanswered result carries data: %+v", r)
			}
		}
	}
	if marked != br.Unanswered {
		t.Fatalf("%d results marked unanswered, Unanswered says %d", marked, br.Unanswered)
	}
	st := s.Stats()
	if got := st.Backends["default"]["batch"].Canceled; got != int64(br.Unanswered) {
		t.Fatalf("batch canceled counter = %d, want %d", got, br.Unanswered)
	}
}

// TestBatchCancelMarksUnanswered drives runBatch directly with contexts
// canceled before and during the batch: the regression here was unfed
// tail queries silently coming back as zero-value Results. Every result
// must be answered or explicitly marked, the marks must be a contiguous
// tail, and the count must match the reported unanswered total.
func TestBatchCancelMarksUnanswered(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	b, h, err := s.resolve(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	ix := h.Index()
	queries := make([]Query, 4000)
	for i := range queries {
		queries[i] = Query{Op: "aliases", P: intp(i % 100)}
	}

	check := func(results []Result, unanswered int) {
		t.Helper()
		if len(results) != len(queries) {
			t.Fatalf("got %d results, want %d", len(results), len(queries))
		}
		firstMarked := len(results)
		for i, r := range results {
			isMarked := strings.Contains(r.Err, "unanswered")
			if isMarked && i < firstMarked {
				firstMarked = i
			}
			if !isMarked && i > firstMarked {
				t.Fatalf("answered result %d after marked result %d: tail is not contiguous", i, firstMarked)
			}
			if r.Alias == nil && r.IDs == nil && r.Err == "" {
				t.Fatalf("result %d is a silent zero value", i)
			}
		}
		if got := len(results) - firstMarked; got != unanswered {
			t.Fatalf("%d results marked, runBatch reported %d", got, unanswered)
		}
	}

	// Pre-canceled: nothing may be fed, everything marked.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, unanswered := s.runBatch(ctx, b, ix, queries)
	check(results, unanswered)
	if unanswered != len(queries) {
		t.Fatalf("pre-canceled batch answered %d queries", len(queries)-unanswered)
	}

	// Canceled mid-flight: whatever the interleaving, the invariants hold.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	results, unanswered = s.runBatch(ctx, b, ix, queries)
	check(results, unanswered)
}

func TestStatsAndBackends(t *testing.T) {
	s, ix, ts := newTestServer(t, Options{})
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/query", queryRequest{Query: Query{Op: "isalias", P: intp(0), Q: intp(1)}})
	}
	postJSON(t, ts.URL+"/query", queryRequest{Query: Query{Op: "pointsto", P: intp(ix.NumPointers + 5)}})

	resp, err := http.Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ops := st.Backends["default"]
	if ops["isalias"].Count != 5 {
		t.Fatalf("isalias count = %d, want 5", ops["isalias"].Count)
	}
	if ops["isalias"].Latency.Count != 5 {
		t.Fatalf("isalias latency count = %d, want 5", ops["isalias"].Latency.Count)
	}
	if ops["pointsto"].Errors != 1 {
		t.Fatalf("pointsto errors = %d, want 1", ops["pointsto"].Errors)
	}
	// Error responses cost latency too: the histogram must observe both
	// paths, so its count always equals successes plus errors. (The
	// regression was errors skipping lat.Observe, skewing the histogram
	// toward flattering numbers under malformed load.)
	for op, o := range ops {
		if o.Latency.Count != o.Count+o.Errors {
			t.Fatalf("%s latency count %d != count %d + errors %d",
				op, o.Latency.Count, o.Count, o.Errors)
		}
	}

	bs := s.Backends()
	if len(bs) != 1 || bs[0].Name != "default" || bs[0].Pointers != ix.NumPointers {
		t.Fatalf("Backends() = %+v", bs)
	}
}

func TestServeAndGracefulShutdown(t *testing.T) {
	ix := testIndex(t, testPM(3, 40, 10, 150))
	s := New(Options{})
	if err := s.AddIndex("default", ix); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	url := "http://" + l.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// zipfReply is one 32-result /batch reply in serve-zipf's mix (pbench):
// 19 isalias, 5 aliases, 5 pointsto and 3 pointedby answers. The index has
// the served program's dimensions, 18,000 pointers over 14,000 objects,
// in 450 classes of 40 pointers that share 32 random objects: a list
// holds about 1,300 aliases, 31 objects or 60 pointers, against pbench's
// means of 1,540, 32 and 40, and the reply is ~34KB against ~41KB.
func zipfReply(tb testing.TB) BatchResponse {
	const pointers, objects, classes, fanout = 18000, 14000, 450, 32
	rng := rand.New(rand.NewSource(1))
	pm := matrix.New(pointers, objects)
	objs := make([][]int, classes)
	for c := range objs {
		for i := 0; i < fanout; i++ {
			objs[c] = append(objs[c], rng.Intn(objects))
		}
	}
	for p := 0; p < pointers; p++ {
		for _, o := range objs[p%classes] {
			pm.Add(p, o)
		}
	}
	ix := testIndex(tb, pm)
	results := make([]Result, 32)
	for i := range results {
		p := rng.Intn(pointers)
		switch {
		case i < 19:
			alias := ix.IsAlias(p, rng.Intn(pointers))
			results[i].Alias = &alias
		case i < 24:
			results[i].IDs = ix.AppendAliases(nil, p)
		case i < 29:
			results[i].IDs = ix.AppendPointsTo(nil, p)
		default:
			results[i].IDs = ix.AppendPointedBy(nil, rng.Intn(objects))
		}
	}
	return BatchResponse{Results: results, Generation: "0123456789abcdef@12"}
}

var replySink []byte

// BenchmarkReplyEncoding times the reply writer on zipfReply against the
// json.Encoder it replaced, which re-validates and compacts every
// already-encoded IDs list.
func BenchmarkReplyEncoding(b *testing.B) {
	br := zipfReply(b)
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replySink = append(appendBatch(make([]byte, 0, batchBytes(br)), br), '\n')
		}
		b.SetBytes(int64(len(replySink)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(br); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
