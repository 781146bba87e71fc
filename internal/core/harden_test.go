package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"pestrie/internal/demand"
	"pestrie/internal/matrix"
)

// pesFile builds a crafted persistent file from raw header/section values,
// for exercising the decoder's error paths with inputs WriteTo would never
// produce. Values appear in file order: version, numPointers, numObjects,
// numGroups, pointer timestamps (+1), object timestamps, then the eight
// shape sections.
func pesFile(values ...uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	var b [binary.MaxVarintLen64]byte
	for _, v := range values {
		n := binary.PutUvarint(b[:], v)
		buf.Write(b[:n])
	}
	return buf.Bytes()
}

// missingOriginFile has one placed pointer but no objects, so the origin
// table decodes empty. Before the loader validated origin coverage this
// loaded fine and ListAliases(0) panicked indexing originTS[0].
func missingOriginFile() []byte {
	return pesFile(
		1,                      // version
		1,                      // numPointers
		0,                      // numObjects
		1,                      // numGroups
		1,                      // pointer 0 placed at timestamp 0
		0, 0, 0, 0, 0, 0, 0, 0, // empty shape sections
	)
}

// lateOriginFile places a pointer at timestamp 0 but its only origin at
// timestamp 1, leaving timestamp 0 uncovered by any PES.
func lateOriginFile() []byte {
	return pesFile(
		1, // version
		1, // numPointers
		1, // numObjects
		2, // numGroups
		1, // pointer 0 placed at timestamp 0
		1, // object 0 origin at timestamp 1
		0, 0, 0, 0, 0, 0, 0, 0,
	)
}

// oversizedRectFile carries an hline whose X2 runs past the timestamp
// axis; buildIndex would walk ptList[X1..X2] out of range.
func oversizedRectFile() []byte {
	return pesFile(
		1,    // version
		1,    // numPointers
		1,    // numObjects
		2,    // numGroups
		2,    // pointer 0 placed at timestamp 1
		0,    // object 0 origin at timestamp 0
		0, 0, // point sections
		0, 0, // vline sections
		1,       // one case-1 hline:
		0, 9, 1, // X1=0, width 9 → X2=9 ≥ numGroups, Y1=Y2=1
		0, 0, 0, // remaining sections
	)
}

// entryBombFile is a ~470KB file whose 32,769 rectangles each span all
// 65,536 timestamps, one column entry per timestamp of either side: more
// entries than int32 column offsets can index. Before the loader counted
// them, decode summed the counts into a negative array length and panicked.
func entryBombFile() []byte {
	const groups = 1 << 16
	vals := []uint64{1, groups - 1, 1, groups} // version, pointers, objects, groups
	for p := 0; p < groups-1; p++ {
		vals = append(vals, uint64(p+2)) // pointer p at timestamp p+1
	}
	vals = append(vals, 0, 0, 0, 0, 0, 0, 0) // object 0 at timestamp 0; no points, vlines, hlines
	const rects = 1<<15 + 1
	vals = append(vals, rects)
	for i := 0; i < rects; i++ {
		// X1 = 0 (delta 0), width groups/2-1, Y1 = groups/2, height groups/2-1.
		vals = append(vals, 0, groups/2-1, groups/2, groups/2-1)
	}
	return pesFile(append(vals, 0)...) // no case-2 rectangles
}

// bombFile is a ~13-byte file whose header claims 2²⁹ pointers. The
// decoder must fail on the missing timestamps without allocating
// gigabytes first.
func bombFile() []byte {
	return pesFile(
		1,     // version
		1<<29, // numPointers
		0,     // numObjects
		1,     // numGroups — then truncated before any timestamp
	)
}

func TestListEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(listEntry{}); got != listEntrySize {
		t.Fatalf("listEntrySize constant is %d but unsafe.Sizeof(listEntry{}) = %d; "+
			"update the constant so MemoryFootprint stays honest", listEntrySize, got)
	}
}

// TestGroupCountBound pins the structural invariant the loader enforces:
// every group holds a pointer or is an origin with an object, so built
// tries never exceed numPointers+numObjects groups.
func TestGroupCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		np, no := 1+rng.Intn(60), 1+rng.Intn(25)
		pm := randomPM(rng, np, no, rng.Intn(400))
		tr := Build(pm, nil)
		if tr.NumGroups > np+no {
			t.Fatalf("trial %d: %d groups from %d pointers + %d objects", trial, tr.NumGroups, np, no)
		}
	}
}

func TestLoadRejectsMissingOrigin(t *testing.T) {
	for name, data := range map[string][]byte{
		"no objects":  missingOriginFile(),
		"late origin": lateOriginFile(),
	} {
		ix, err := Load(bytes.NewReader(data))
		if err == nil {
			// Regression: this used to load and then panic in ListAliases.
			ix.ListAliases(0)
			t.Fatalf("%s: Load accepted a file with no origin at timestamp 0", name)
		}
	}
}

func TestLoadRejectsOversizedRectangle(t *testing.T) {
	if _, err := Load(bytes.NewReader(oversizedRectFile())); err == nil {
		t.Fatal("Load accepted an hline with X2 past the timestamp axis")
	}
}

func TestLoadRejectsImplausibleGroupCount(t *testing.T) {
	data := pesFile(1, 1, 1, 1000) // 1000 groups from 1 pointer + 1 object
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load accepted numGroups > numPointers+numObjects")
	}
}

// TestLoadAllocationBomb feeds the truncated bomb file and checks the
// decoder fails without allocating anywhere near what the header claims
// (2²⁹ pointers would be 4 GiB of timestamps alone).
func TestLoadAllocationBomb(t *testing.T) {
	data := bombFile()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a truncated file claiming 2^29 pointers")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("decoding a %d-byte bomb allocated %d bytes", len(data), grew)
	}
}

// TestLoadRejectsColumnEntryOverflow: a file whose rectangles would place
// more column entries than int32 offsets index errors while it is read,
// before decode sizes any column.
func TestLoadRejectsColumnEntryOverflow(t *testing.T) {
	data := entryBombFile()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted rectangles spanning more than 2^31-1 column entries")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(data), grew)
	}
}

// TestLoadTruncationSweep checks every strict prefix of a valid file —
// every section boundary included — returns an error rather than decoding
// or panicking.
func TestLoadTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, pm := range map[string]*matrixPM{
		"paper":  {paperPM(), &Options{Order: paperOrder}},
		"random": {randomPM(rng, 80, 30, 600), nil},
	} {
		var full bytes.Buffer
		if _, err := Build(pm.pm, pm.opts).WriteTo(&full); err != nil {
			t.Fatal(err)
		}
		data := full.Bytes()
		if _, err := Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: full file must load: %v", name, err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", name, cut, len(data))
			}
		}
	}
}

type matrixPM struct {
	pm   *matrix.PointsTo
	opts *Options
}

// TestListAliasesSetMatchesDemand compares ListAliases against the
// demand-driven oracle as a *set*, with Theorem-2 pruning both on and
// off. With pruning disabled, dedupColumn's unconditional case-1
// retention can keep nested duplicates, so the persisted answer may
// repeat entries — but its set must still be exactly the oracle's.
func TestListAliasesSetMatchesDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		pm := randomPM(rng, 1+rng.Intn(80), 1+rng.Intn(30), rng.Intn(500))
		oracle := demand.New(pm)
		for _, opts := range []*Options{nil, {DisablePruning: true}} {
			var buf bytes.Buffer
			if _, err := Build(pm, opts).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			ix, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < pm.NumPointers; p++ {
				got := toSet(ix.ListAliases(p))
				want := toSet(oracle.ListAliases(p))
				if !equalSets(got, want) {
					t.Fatalf("trial %d pruning=%v: ListAliases(%d) = %v, oracle %v",
						trial, opts == nil, p, got, want)
				}
			}
		}
	}
}

func toSet(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
