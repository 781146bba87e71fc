package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// TestBatchSeedGolden pins the splitmix64 seed derivation: these values
// are the published contract of a bench run — change them and every
// recorded benchmark stream silently becomes a different workload.
func TestBatchSeedGolden(t *testing.T) {
	golden := []struct {
		seed int64
		i    int
		want int64
	}{
		{1, 0, 6791897765849424158},
		{1, 1, -1586005623519383010},
		{1, 2, -4838594755968170389},
		{42, 0, 6332618229526065668},
		{42, 7, 1587005860896957696},
		{-3, 5, -458469890624924916},
	}
	for _, g := range golden {
		if got := batchSeed(g.seed, g.i); got != g.want {
			t.Errorf("batchSeed(%d, %d) = %d, want %d", g.seed, g.i, got, g.want)
		}
	}
	// Distinct batches must get distinct seeds (full-avalanche mix).
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := batchSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at batch %d", i)
		}
		seen[s] = true
	}
}

// TestGenQueriesDeterministic pins that one (seed, batch index) pair
// always yields the same queries — the property any recorded benchmark
// depends on.
func TestGenQueriesDeterministic(t *testing.T) {
	opts := BenchOptions{
		Base:       []int{3, 17, 42, 99, 140},
		NumObjects: 30,
		BatchSize:  64,
		Mix:        DefaultMix,
		ZipfS:      1.2,
	}
	a := genQueries(rand.New(rand.NewSource(batchSeed(9, 4))), &opts)
	b := genQueries(rand.New(rand.NewSource(batchSeed(9, 4))), &opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and batch index produced different queries")
	}
	c := genQueries(rand.New(rand.NewSource(batchSeed(9, 5))), &opts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different batch indices produced identical queries")
	}
}

// TestRunBenchConcurrencyInvariant replays the same run at concurrency 1
// and 8 against a server whose handler records every batch it receives:
// the multiset of queries observed on the wire must be identical —
// per-request streams derive from the batch index, never from worker
// identity or scheduling. (The regression risk: seeding per worker makes
// the measured workload depend on the concurrency flag.)
func TestRunBenchConcurrencyInvariant(t *testing.T) {
	ix := testIndex(t, testPM(21, 90, 24, 400))

	run := func(concurrency int) map[string]int {
		s := New(Options{})
		if err := s.AddIndex("default", ix); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		seen := map[string]int{}
		handler := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				r.Body.Close()
				var req batchRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Error(err)
				}
				mu.Lock()
				for _, q := range req.Queries {
					seen[queryKey(req.Backend, "", q)]++
				}
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			handler.ServeHTTP(w, r)
		}))
		defer ts.Close()
		report, err := RunBench(context.Background(), BenchOptions{
			URL:         ts.URL,
			Base:        []int{1, 5, 9, 33, 70},
			NumObjects:  24,
			Requests:    12,
			BatchSize:   32,
			Concurrency: concurrency,
			Seed:        3,
			Mix:         DefaultMix,
		})
		if err != nil {
			t.Fatal(err)
		}
		if report.Failed != 0 || report.Unanswered != 0 || report.QueryErrors != 0 {
			t.Fatalf("concurrency %d: %+v", concurrency, report)
		}
		return seen
	}

	s1 := run(1)
	s8 := run(8)
	if len(s1) == 0 || !reflect.DeepEqual(s1, s8) {
		t.Fatalf("query stream differs across concurrency levels (%d vs %d distinct)", len(s1), len(s8))
	}
}
