// Package server exposes loaded Pestrie indexes as a concurrent query
// service over HTTP/JSON — the pay-once persistence story of the paper
// taken to its conclusion: one process decodes a .pes file and any number
// of downstream clients query it without re-running the pointer analysis.
//
// Endpoints:
//
//	POST /query        one Table-1 query  {"backend","op","p","q","o"}
//	POST /batch        many queries       {"backend","queries":[...]}, answered in order
//	GET  /backends     catalogued indexes and their dimensions
//	GET  /debug/stats  per-backend/per-op counters and latency histograms
//	GET  /debug/store  store lifecycle state (budget, evictions, generations)
//	GET  /healthz      liveness probe
//
// Every backend is an entry of one internal/store catalog: Options.Store,
// or an unbudgeted store of the server's own. File entries decode on
// first query and live in a memory-budgeted LRU; AddIndex registers an
// index already in memory as a resident entry that is never evicted. A
// request pins its generation for the request's whole duration, so
// eviction and hot-swap never free or tear an index mid-query.
//
// List answers are the bytes the index's Append methods write, which are
// what json.Marshal writes for its List methods' return values, so a
// server response is byte-identical to what an in-process caller would
// encode. The Index is immutable after Load, which is what makes the
// whole service a pile of lock-free concurrent readers (pinned by the
// package's -race tests).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/perf"
	"pestrie/internal/store"
)

// Ops in canonical order, matching the cmd/pestrie query -op names.
var Ops = []string{"isalias", "aliases", "pointsto", "pointedby"}

// Options configure a Server.
type Options struct {
	// RequestTimeout bounds the handling of a single request, batches
	// included. Zero selects 10s.
	RequestTimeout time.Duration

	// MaxBatch caps the queries accepted in one batch request. Zero
	// selects 65536.
	MaxBatch int

	// Store is the catalog the server serves: lazy decode on first
	// query, LRU eviction under a memory budget, checksum hot-swap. Nil
	// selects an unbudgeted store.New(store.Options{}).
	Store *store.Store

	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default). Profile collection runs outside the request timeout.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1 << 16
	}
	if o.Store == nil {
		o.Store = store.New(store.Options{})
	}
	return o
}

const (
	// Request bodies are read through http.MaxBytesReader, so one request
	// cannot make the decoder allocate without bound. A query spelled out
	// with three 10-digit IDs is under 80 bytes; queryBytes leaves room for
	// whitespace on top. envelopeBytes covers the rest of a body: the
	// backend name and the JSON framing.
	queryBytes    = 256
	envelopeBytes = 4 << 10
)

// bodyLimit is the byte limit on a request body carrying n queries.
func bodyLimit(n int) int64 { return envelopeBytes + int64(n)*queryBytes }

// errUnnamedBackend is resolve's error for an empty name that does not
// pick out a single backend; resolveStatus maps it, like store.ErrUnknown,
// to 404.
var errUnnamedBackend = errors.New("request must name one")

// Server answers pointer queries over one or more named indexes.
type Server struct {
	opts  Options
	start time.Time

	mu       sync.RWMutex        // guards backends registration; reads on hot path
	backends map[string]*backend // per-backend stats, created on first query

	httpMu sync.Mutex
	httpS  *http.Server
}

type backend struct {
	name string
	// stats has one entry per op plus "batch"; fixed at creation so
	// the hot path is atomics only.
	stats map[string]*opStats
}

func newBackend(name string) *backend {
	b := &backend{name: name, stats: make(map[string]*opStats)}
	for _, op := range append(append([]string(nil), Ops...), "batch") {
		b.stats[op] = &opStats{}
	}
	return b
}

type opStats struct {
	count    atomic.Int64
	errors   atomic.Int64
	canceled atomic.Int64 // batch queries returned unanswered (timeout truncation)
	lat      perf.Histogram
}

// New returns a Server over opts.Store; register in-memory indexes with
// AddIndex.
func New(opts Options) *Server {
	return &Server{
		opts:     opts.withDefaults(),
		start:    time.Now(),
		backends: make(map[string]*backend),
	}
}

// AddIndex registers a loaded index under name as a resident store entry:
// never evicted or refreshed, answering under the version tag "s:<dims>".
// Empty names and names already in the catalog are errors, the latter
// matching store.ErrDuplicate.
func (s *Server) AddIndex(name string, ix *core.Index) error {
	return s.opts.Store.AddIndex(name, ix)
}

// statsFor returns the stats holder for name, creating it on first touch.
func (s *Server) statsFor(name string) *backend {
	s.mu.RLock()
	b, ok := s.backends[name]
	s.mu.RUnlock()
	if ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.backends[name]; ok {
		return b
	}
	b = newBackend(name)
	s.backends[name] = b
	return b
}

// resolve pins the generation a request's backend name currently serves.
// The handle's Index answers the request and its VersionTag names the
// content the answers correspond to — the generation a /batch reply
// reports. The empty name is allowed when exactly one backend is
// catalogued. The caller must Release the handle when the request is
// done.
func (s *Server) resolve(ctx context.Context, name string) (*backend, *store.Handle, error) {
	if name == "" {
		names := s.opts.Store.Names()
		if len(names) != 1 {
			return nil, nil, fmt.Errorf("server: %d backends loaded, %w", len(names), errUnnamedBackend)
		}
		name = names[0]
	}
	h, err := s.opts.Store.Acquire(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	return s.statsFor(name), h, nil
}

// Query is one Table-1 query. ID fields are pointers so "absent" and "0"
// stay distinguishable during validation.
type Query struct {
	Op string `json:"op"`
	P  *int   `json:"p,omitempty"`
	Q  *int   `json:"q,omitempty"`
	O  *int   `json:"o,omitempty"`
}

// Result is the answer to one Query. For list ops, IDs holds the JSON
// encoding of the exact []int the Index's List method returns, as its
// Append method writes it — the byte-identical contract. Err is set
// instead when the query is malformed.
type Result struct {
	Alias *bool           `json:"alias,omitempty"`
	IDs   json.RawMessage `json:"ids,omitempty"`
	Err   string          `json:"error,omitempty"`
}

// exec answers one query against an index, recording stats on b. The
// index is passed in (rather than read from b) because each request pins
// a possibly different generation — a plain decoded base, or a
// delta-chain snapshot whose answers are frozen at that generation's
// stamp.
func (s *Server) exec(b *backend, ix delta.Index, q Query) Result {
	// Start the clock before validation: error responses cost real time
	// too, and a histogram that only sees successes reports flattering
	// latencies the moment clients start sending malformed queries.
	start := time.Now()
	st, ok := b.stats[q.Op]
	if !ok {
		return Result{Err: fmt.Sprintf("unknown op %q", q.Op)}
	}
	need := func(name string, v *int, n int) (int, error) {
		if v == nil {
			return 0, fmt.Errorf("%s needs %q", q.Op, name)
		}
		if *v < 0 || *v >= n {
			return 0, fmt.Errorf("%s %d out of range [0,%d)", name, *v, n)
		}
		return *v, nil
	}
	var res Result
	var err error
	switch q.Op {
	case "isalias":
		var p, qq int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			if qq, err = need("q", q.Q, ix.Pointers()); err == nil {
				alias := ix.IsAlias(p, qq)
				res.Alias = &alias
			}
		}
	case "aliases":
		var p int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			res.IDs = ix.AppendAliases(nil, p)
		}
	case "pointsto":
		var p int
		if p, err = need("p", q.P, ix.Pointers()); err == nil {
			res.IDs = ix.AppendPointsTo(nil, p)
		}
	case "pointedby":
		var o int
		if o, err = need("o", q.O, ix.Objects()); err == nil {
			res.IDs = ix.AppendPointedBy(nil, o)
		}
	}
	if err != nil {
		st.errors.Add(1)
		st.lat.Observe(time.Since(start))
		return Result{Err: err.Error()}
	}
	st.count.Add(1)
	st.lat.Observe(time.Since(start))
	return res
}

// runBatch answers queries in order on the calling goroutine, the
// request's own (DESIGN.md, "One goroutine per batch"). ctx is checked
// before each query; once it is done, every query left unanswered gets
// an explicit per-result error — a zero-value Result would read as a
// legitimate empty answer, silently truncating the batch — and the count
// of those is returned so callers can surface and meter the truncation.
func (s *Server) runBatch(ctx context.Context, b *backend, ix delta.Index, queries []Query) ([]Result, int) {
	results := make([]Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			msg := fmt.Sprintf("server: unanswered, batch canceled after %d/%d queries: %v",
				i, len(queries), err)
			for j := i; j < len(queries); j++ {
				results[j] = Result{Err: msg}
			}
			return results, len(queries) - i
		}
		results[i] = s.exec(b, ix, q)
	}
	return results, 0
}

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /backends", s.handleBackends)
	mux.HandleFunc("GET /debug/stats", s.handleStats)
	mux.HandleFunc("GET /debug/store", s.handleStore)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Profile collection legitimately runs for ?seconds=30; exempt
		// it from the query deadline.
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			mux.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeReply writes body, a reply encoded by appendResult or appendBatch,
// in one Write, ending it with the newline json.Encoder writes. Those two
// append the bytes json.Encoder would write but copy encoded IDs
// verbatim: the encoder re-validates and compacts every json.RawMessage,
// and that cost half the server's CPU under pbench serve-zipf (DESIGN.md,
// "Reply encoding"). FuzzReplyEncoding holds them to encoding/json.
func writeReply(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// resultBytes bounds len(appendResult(nil, r)) plus one separating comma
// when r.Err needs no escapes: {"alias":false,"ids":…,"error":"…"},
func resultBytes(r Result) int { return 34 + len(r.IDs) + len(r.Err) }

// batchBytes bounds len(appendBatch(nil, br)) plus the closing newline
// when no string needs escapes: besides the tag and the results, the
// envelope and the newline take at most 80 bytes.
func batchBytes(br BatchResponse) int {
	n := 80 + len(br.Generation)
	for _, r := range br.Results {
		n += resultBytes(r)
	}
	return n
}

// appendResult appends the encoding of r: fields in struct order, each
// omitted when empty, and IDs verbatim, since they are an index's Append
// output, json.Marshal's bytes for an []int, and hold nothing
// encoding/json would compact or escape.
func appendResult(b []byte, r Result) []byte {
	b = append(b, '{')
	// No field value ends in '{', so it marks that none is written yet.
	if r.Alias != nil {
		b = append(b, `"alias":`...)
		b = strconv.AppendBool(b, *r.Alias)
	}
	if len(r.IDs) > 0 {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		b = append(b, `"ids":`...)
		b = append(b, r.IDs...)
	}
	if r.Err != "" {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		b = append(b, `"error":`...)
		b = appendString(b, r.Err)
	}
	return append(b, '}')
}

// appendBatch appends the encoding of br: results (null for a nil slice),
// then generation and unanswered, each omitted when empty.
func appendBatch(b []byte, br BatchResponse) []byte {
	b = append(b, `{"results":`...)
	if br.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range br.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResult(b, r)
		}
		b = append(b, ']')
	}
	if br.Generation != "" {
		b = append(b, `,"generation":`...)
		b = appendString(b, br.Generation)
	}
	if br.Unanswered != 0 {
		b = append(b, `,"unanswered":`...)
		b = strconv.AppendInt(b, int64(br.Unanswered), 10)
	}
	return append(b, '}')
}

// appendString appends s as encoding/json quotes it, escapes included:
// <, > and &, U+2028 and U+2029, and invalid UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

type queryRequest struct {
	Backend string `json:"backend"`
	Query
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// On failure it writes the error reply — 413 for a body over the limit,
// 400 for anything else — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding request: %w", err))
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, bodyLimit(1), &req) {
		return
	}
	b, h, err := s.resolve(r.Context(), req.Backend)
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	defer h.Release()
	res := s.exec(b, h.Index(), req.Query)
	status := http.StatusOK
	if res.Err != "" {
		status = http.StatusBadRequest
	}
	writeReply(w, status, appendResult(make([]byte, 0, resultBytes(res)), res))
}

// resolveStatus maps a resolve failure to its HTTP status: names that
// aren't in the catalog are the client's fault (404), a catalogued file
// that fails to decode is the server's (502).
func resolveStatus(err error) int {
	if errors.Is(err, store.ErrUnknown) || errors.Is(err, errUnnamedBackend) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

type batchRequest struct {
	Backend string  `json:"backend"`
	Queries []Query `json:"queries"`
}

// BatchResponse is the reply to POST /batch. Generation is the version
// tag of the generation the batch pinned, so a client can tell which
// content every answer in the reply corresponds to ("<base hash>@<delta
// stamp>" for a file entry, "s:<dims>" for one registered with AddIndex);
// Unanswered counts queries a timed-out batch returned with per-result
// errors instead of answers.
type BatchResponse struct {
	Results    []Result `json:"results"`
	Generation string   `json:"generation,omitempty"`
	Unanswered int      `json:"unanswered,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, bodyLimit(s.opts.MaxBatch), &req) {
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: batch of %d exceeds limit %d", len(req.Queries), s.opts.MaxBatch))
		return
	}
	b, h, err := s.resolve(r.Context(), req.Backend)
	if err != nil {
		writeError(w, resolveStatus(err), err)
		return
	}
	defer h.Release()
	start := time.Now()
	results, unanswered := s.runBatch(r.Context(), b, h.Index(), req.Queries)
	st := b.stats["batch"]
	st.count.Add(1)
	st.lat.Observe(time.Since(start))
	if unanswered > 0 {
		// A truncated batch still returns what it computed: the answered
		// prefix is valid work, and the tail is explicitly marked. The
		// canceled counter is the monitoring signal that deadlines are
		// eating batches.
		st.canceled.Add(int64(unanswered))
	}
	// One buffer per reply, sized once. A pool was measured to gain
	// nothing, and it would pin the largest reply it ever held.
	br := BatchResponse{Results: results, Generation: h.VersionTag(), Unanswered: unanswered}
	writeReply(w, http.StatusOK, appendBatch(make([]byte, 0, batchBytes(br)), br))
}

// BackendInfo describes one catalogued index. File entries report
// Loaded=false (with zero or last-known dimensions) until their first
// query decodes them; resident entries are always loaded.
type BackendInfo struct {
	Name       string `json:"name"`
	Loaded     bool   `json:"loaded"`
	Pointers   int    `json:"pointers"`
	Objects    int    `json:"objects"`
	Groups     int    `json:"groups"`
	Rectangles int    `json:"rectangles"`
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]BackendInfo{"backends": s.Backends()})
}

// Backends lists the catalogued indexes sorted by name, described from the
// store's snapshot without forcing any to load (that would defeat the
// budget).
func (s *Server) Backends() []BackendInfo {
	entries := s.opts.Store.Snapshot().Backends
	out := make([]BackendInfo, len(entries))
	for i, e := range entries {
		out[i] = BackendInfo{
			Name:       e.Name,
			Loaded:     e.Loaded,
			Pointers:   e.Pointers,
			Objects:    e.Objects,
			Groups:     e.Groups,
			Rectangles: e.Rectangles,
		}
	}
	return out
}

// handleStore exposes the store's lifecycle state — per-entry
// loaded/evicted status, generations, byte footprints, hit/miss/load/evict
// counters, and load-latency histograms.
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.Store.Snapshot())
}

// OpStats is the monitoring snapshot for one (backend, op) pair.
type OpStats struct {
	Count    int64                  `json:"count"`
	Errors   int64                  `json:"errors"`
	Canceled int64                  `json:"canceled,omitempty"`
	Latency  perf.HistogramSnapshot `json:"latency"`
}

// Stats is the /debug/stats payload.
type Stats struct {
	UptimeMS int64                         `json:"uptime_ms"`
	Backends map[string]map[string]OpStats `json:"backends"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots every counter and histogram.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Backends: make(map[string]map[string]OpStats, len(s.backends)),
	}
	for name, b := range s.backends {
		ops := make(map[string]OpStats, len(b.stats))
		for op, st := range b.stats {
			ops[op] = OpStats{
				Count:    st.count.Load(),
				Errors:   st.errors.Load(),
				Canceled: st.canceled.Load(),
				Latency:  st.lat.Snapshot(),
			}
		}
		out.Backends[name] = ops
	}
	return out
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.httpMu.Lock()
	s.httpS = hs
	s.httpMu.Unlock()
	return hs.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	hs := s.httpS
	s.httpMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}
