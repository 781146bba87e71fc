// Package par is the small worker-pool substrate shared by the parallel
// Pestrie decode (internal/core) and the solver's deref scan
// (internal/anders).
// Every helper is deterministic by construction: work is split into
// contiguous chunks whose boundaries depend only on (n, workers), each
// chunk writes to a disjoint region chosen by the caller, and the helpers
// block until every worker finishes — so callers observe the same results
// as a sequential loop, just faster. A panic in any worker is re-raised in
// the caller (first one wins), matching sequential panic semantics.
package par

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker count: values <= 0 select GOMAXPROCS (the
// default of the -j flag), 1 means strictly sequential execution on the
// calling goroutine, and anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// firstPanic captures the first panic raised by a group of workers so it
// can be re-raised on the coordinating goroutine.
type firstPanic struct {
	mu  sync.Mutex
	set bool
	val any
}

func (f *firstPanic) capture() {
	if r := recover(); r != nil {
		f.mu.Lock()
		if !f.set {
			f.set, f.val = true, r
		}
		f.mu.Unlock()
	}
}

func (f *firstPanic) rethrow() {
	if f.set {
		panic(f.val)
	}
}

// Do runs fn(w) for every w in [0, workers) on its own goroutine and waits
// for all of them. workers <= 1 runs fn(0) inline.
func Do(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var fp firstPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer fp.capture()
			fn(w)
		}(w)
	}
	wg.Wait()
	fp.rethrow()
}

// Chunks splits [0, n) into at most `workers` contiguous chunks and runs
// fn(lo, hi) for each chunk concurrently, waiting for all of them.
// Chunk boundaries depend only on (n, workers), so a caller that writes
// results indexed by chunk position gets identical output for any worker
// count. workers <= 1 (or n small enough for one chunk) runs inline.
func Chunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var fp firstPanic
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer fp.capture()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	fp.rethrow()
}

// ChunkBounds returns the chunk boundaries Chunks(n, workers, ...) would
// use: a slice of cut points c with c[0] = 0 and c[len(c)-1] = n, where
// chunk i covers [c[i], c[i+1]). Callers that need a per-chunk accumulator
// (e.g. parallel counting sort) use this to size and index their state.
func ChunkBounds(n, workers int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	bounds := []int{0}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, hi)
	}
	return bounds
}
