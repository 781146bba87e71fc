package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pestrie/internal/matrix"
)

// TestBuildMatchesBruteForce double-checks that a default build's answers
// stay correct (not merely self-consistent) on random inputs.
func TestBuildMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(25), 1+rng.Intn(12)
		pm := randomPM(rng, np, no, rng.Intn(120))
		trie := Build(pm, nil)
		return indexMatches(trie.Index(), pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCountingSortByTS pins the counting-sort helper against a reference
// that files each ID under its key by a scan per key.
func TestCountingSortByTS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n, numTS := rng.Intn(200), 1+rng.Intn(20)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(numTS+2) - 2 // includes negatives (unplaced)
		}
		wantFlat, wantStart := []int32{}, []int32{0}
		for ts := 0; ts < numTS; ts++ {
			for id, k := range keys {
				if k == ts {
					wantFlat = append(wantFlat, int32(id))
				}
			}
			wantStart = append(wantStart, int32(len(wantFlat)))
		}
		flat, start := countingSortByTS(keys, numTS)
		if !reflect.DeepEqual(flat, wantFlat) || !reflect.DeepEqual(start, wantStart) {
			t.Fatalf("flat/start = %v/%v, want %v/%v\nkeys=%v", flat, start, wantFlat, wantStart, keys)
		}
	}
}

// TestDedupColumnDropsExactDuplicates is the regression test for the
// duplicate-ID bug: dedupColumn used to keep every case-1 entry
// unconditionally, including exact duplicates, which leaked the same
// pointer twice into ListAliases/ListPointedBy answers when pruning was
// off.
func TestDedupColumnDropsExactDuplicates(t *testing.T) {
	e := func(lo, hi int32, case1, mirror bool) listEntry {
		return listEntry{lo: lo, hi: hi, case1: case1, mirror: mirror}
	}
	in := []listEntry{
		e(2, 4, true, false),
		e(2, 4, true, false), // exact duplicate: must be dropped
		e(2, 4, true, true),  // same range, mirrored: distinct, kept
		e(5, 9, false, false),
		e(5, 9, false, false), // duplicate case-2: dropped (enclosed rule)
		e(6, 7, true, true),   // nested case-1: kept (carries facts)
		e(6, 7, false, false), // nested case-2: dropped
	}
	want := []listEntry{
		e(2, 4, true, false),
		e(2, 4, true, true),
		e(5, 9, false, false),
		e(6, 7, true, true),
	}
	got := dedupColumn(append([]listEntry(nil), in...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupColumn = %+v, want %+v", got, want)
	}
}

// TestNoDuplicateAnswersWithPruningOff drives the duplicate check through
// whole builds: with pruning disabled, redundant rectangles survive to the
// index and every List* answer must still be duplicate-free.
func TestNoDuplicateAnswersWithPruningOff(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(30), 1+rng.Intn(15)
		pm := randomPM(rng, np, no, rng.Intn(250))
		ix := Build(pm, &Options{Order: randomOrder(rng, no), DisablePruning: true}).Index()
		for p := 0; p < np; p++ {
			if hasDuplicates(ix.ListAliases(p)) || hasDuplicates(ix.ListPointsTo(p)) {
				return false
			}
		}
		for o := 0; o < no; o++ {
			if hasDuplicates(ix.ListPointedBy(o)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestListAliasesExactAllocation pins the capacity fix: the result is
// sized by the counting sweep and filled exactly, so append never
// reallocates and no slack is retained.
func TestListAliasesExactAllocation(t *testing.T) {
	check := func(pm *matrix.PointsTo, opts *Options) {
		t.Helper()
		ix := Build(pm, opts).Index()
		for p := 0; p < pm.NumPointers; p++ {
			got := ix.ListAliases(p)
			if got == nil {
				continue
			}
			if cap(got) != len(got) {
				t.Fatalf("ListAliases(%d): len %d != cap %d (opts %+v)", p, len(got), cap(got), opts)
			}
		}
	}
	check(paperPM(), nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		np, no := 1+rng.Intn(30), 1+rng.Intn(15)
		pm := randomPM(rng, np, no, rng.Intn(250))
		check(pm, &Options{Order: randomOrder(rng, no)})
		check(pm, &Options{Order: randomOrder(rng, no), DisablePruning: true})
	}
}
