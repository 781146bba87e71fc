package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pestrie/internal/perf"
)

// Mix weights the §7.1.1 query mix the load generator replays: base
// pointers (the dereferenced-pointer population) drive the three
// pointer-side queries, plus a share of object-side ListPointedBy.
type Mix struct {
	IsAlias   int
	Aliases   int
	PointsTo  int
	PointedBy int
}

// DefaultMix leans on IsAlias the way compiler clients do (§7.1.1 issues
// IsAlias over all base-pointer pairs), with the list queries sharing the
// rest.
var DefaultMix = Mix{IsAlias: 60, Aliases: 15, PointsTo: 15, PointedBy: 10}

func (m Mix) total() int { return m.IsAlias + m.Aliases + m.PointsTo + m.PointedBy }

// BenchOptions configure RunBench.
type BenchOptions struct {
	URL     string // server base URL, e.g. http://localhost:7171
	Backend string // backend name; empty for a single-backend server

	Base       []int // base-pointer query population (synth.BasePointers)
	NumObjects int   // object ID space for pointedby queries

	Requests    int   // batch requests to send (default 100)
	BatchSize   int   // queries per batch (default 256)
	Concurrency int   // in-flight requests (default 8)
	Seed        int64 // RNG seed for the query stream (default 1)
	Mix         Mix   // zero value selects DefaultMix

	// ZipfS, when > 1, skews argument selection with a zipfian
	// distribution of that exponent instead of uniform picks, so a small
	// hot set dominates the stream — the shape real clients show and the
	// one answer caches exist for. 0 keeps the uniform stream.
	ZipfS float64
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche mix so that
// consecutive batch indices yield statistically independent seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// batchSeed derives the RNG seed for batch i of a run. It depends only on
// (seed, i) — never on which worker sends the batch or in what order — so
// the query stream is identical at any concurrency level.
func batchSeed(seed int64, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(i)))
}

// BenchReport summarizes one load-generation run.
type BenchReport struct {
	Requests    int
	Queries     int
	QueryErrors int           // per-query error results
	Unanswered  int           // queries truncated by server-side deadlines
	Failed      int           // whole requests that failed
	Duration    time.Duration // wall clock across all workers
	Latency     perf.HistogramSnapshot
}

// Throughput returns answered queries per second.
func (r BenchReport) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Queries-r.QueryErrors) / r.Duration.Seconds()
}

func (r BenchReport) String() string {
	return fmt.Sprintf(
		"%d requests (%d queries, %d query errors, %d unanswered, %d failed requests) in %s\n"+
			"throughput: %.0f queries/s\n"+
			"batch latency: p50=%s p90=%s p99=%s mean=%s",
		r.Requests, r.Queries, r.QueryErrors, r.Unanswered, r.Failed, r.Duration.Round(time.Millisecond),
		r.Throughput(),
		time.Duration(r.Latency.P50NS), time.Duration(r.Latency.P90NS),
		time.Duration(r.Latency.P99NS), time.Duration(r.Latency.MeanNS))
}

// genQueries produces one deterministic batch of queries from the mix.
// With ZipfS > 1 the argument picks follow a zipfian rank distribution
// over the populations, so low ranks repeat heavily across batches.
func genQueries(rng *rand.Rand, opts *BenchOptions) []Query {
	out := make([]Query, opts.BatchSize)
	total := opts.Mix.total()
	baseIdx := func() int { return rng.Intn(len(opts.Base)) }
	objIdx := func() int { return rng.Intn(opts.NumObjects) }
	if opts.ZipfS > 1 {
		zb := rand.NewZipf(rng, opts.ZipfS, 1, uint64(len(opts.Base)-1))
		baseIdx = func() int { return int(zb.Uint64()) }
		if opts.NumObjects > 0 {
			zo := rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.NumObjects-1))
			objIdx = func() int { return int(zo.Uint64()) }
		}
	}
	pick := func(p int) *int { v := opts.Base[p%len(opts.Base)]; return &v }
	for i := range out {
		r := rng.Intn(total)
		switch {
		case r < opts.Mix.IsAlias:
			out[i] = Query{Op: "isalias", P: pick(baseIdx()), Q: pick(baseIdx())}
		case r < opts.Mix.IsAlias+opts.Mix.Aliases:
			out[i] = Query{Op: "aliases", P: pick(baseIdx())}
		case r < opts.Mix.IsAlias+opts.Mix.Aliases+opts.Mix.PointsTo:
			out[i] = Query{Op: "pointsto", P: pick(baseIdx())}
		default:
			o := objIdx()
			out[i] = Query{Op: "pointedby", O: &o}
		}
	}
	return out
}

// RunBench replays the query mix against a running server and reports
// throughput and latency. The stream is deterministic in Seed: batch i is
// generated from Seed+i regardless of which worker sends it.
func RunBench(ctx context.Context, opts BenchOptions) (*BenchReport, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("bench: missing server URL")
	}
	if len(opts.Base) == 0 {
		return nil, fmt.Errorf("bench: empty base-pointer population")
	}
	if opts.Requests <= 0 {
		opts.Requests = 100
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Mix.total() <= 0 {
		opts.Mix = DefaultMix
	}
	if opts.NumObjects <= 0 {
		// No object-side population: fold its share into isalias.
		opts.Mix.IsAlias += opts.Mix.PointedBy
		opts.Mix.PointedBy = 0
	}

	client := &http.Client{}
	var (
		lat         perf.Histogram
		queryErrs   atomic.Int64
		unanswered  atomic.Int64
		failed      atomic.Int64
		nextBatch   atomic.Int64
		firstErr    error
		firstErrMu  sync.Mutex
		recordFatal = func(err error) {
			failed.Add(1)
			firstErrMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			firstErrMu.Unlock()
		}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextBatch.Add(1)) - 1
				if i >= opts.Requests || ctx.Err() != nil {
					return
				}
				rng := rand.New(rand.NewSource(batchSeed(opts.Seed, i)))
				queries := genQueries(rng, &opts)
				body, err := json.Marshal(batchRequest{Backend: opts.Backend, Queries: queries})
				if err != nil {
					recordFatal(err)
					continue
				}
				t0 := time.Now()
				resp, err := send(ctx, client, opts.URL+"/batch", body)
				if err != nil {
					recordFatal(err)
					continue
				}
				lat.Observe(time.Since(t0))
				unanswered.Add(int64(resp.Unanswered))
				for _, res := range resp.Results {
					if res.Err != "" {
						queryErrs.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	report := &BenchReport{
		Requests:    opts.Requests,
		Queries:     opts.Requests * opts.BatchSize,
		QueryErrors: int(queryErrs.Load()),
		Unanswered:  int(unanswered.Load()),
		Failed:      int(failed.Load()),
		Duration:    time.Since(start),
		Latency:     lat.Snapshot(),
	}
	if report.Failed == report.Requests && firstErr != nil {
		return report, fmt.Errorf("bench: every request failed: %w", firstErr)
	}
	return report, nil
}

// FetchJSON decodes the JSON a running server answers at GET baseURL+path
// into v — /debug/stats or /debug/store, for reporting after a bench run.
func FetchJSON(ctx context.Context, baseURL, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func send(ctx context.Context, client *http.Client, url string, body []byte) (*BatchResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
