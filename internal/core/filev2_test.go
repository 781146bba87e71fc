package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// v2Image serializes a built index as PES2 bytes.
func v2Image(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteToV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteToV2 reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// queriesEqual cross-checks every Table-1 query (plus PointsTo and the
// recovered matrix) between two indexes over the full ID range.
func queriesEqual(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if a.NumPointers != b.NumPointers || a.NumObjects != b.NumObjects || a.NumGroups != b.NumGroups ||
		a.Rectangles() != b.Rectangles() {
		t.Fatalf("%s: dimensions differ: %d/%d/%d/%d vs %d/%d/%d/%d", what,
			a.NumPointers, a.NumObjects, a.NumGroups, a.Rectangles(),
			b.NumPointers, b.NumObjects, b.NumGroups, b.Rectangles())
	}
	for p := -1; p <= a.NumPointers; p++ {
		if ga, gb := a.ListAliases(p), b.ListAliases(p); !sameSet(ga, gb) {
			t.Fatalf("%s: ListAliases(%d): %v vs %v", what, p, ga, gb)
		}
		if ga, gb := a.ListPointsTo(p), b.ListPointsTo(p); !sameSet(ga, gb) {
			t.Fatalf("%s: ListPointsTo(%d): %v vs %v", what, p, ga, gb)
		}
		for q := -1; q <= a.NumPointers; q++ {
			if ga, gb := a.IsAlias(p, q), b.IsAlias(p, q); ga != gb {
				t.Fatalf("%s: IsAlias(%d, %d): %v vs %v", what, p, q, ga, gb)
			}
		}
		for o := -1; o <= a.NumObjects; o++ {
			if ga, gb := a.PointsTo(p, o), b.PointsTo(p, o); ga != gb {
				t.Fatalf("%s: PointsTo(%d, %d): %v vs %v", what, p, o, ga, gb)
			}
		}
	}
	for o := -1; o <= a.NumObjects; o++ {
		if ga, gb := a.ListPointedBy(o), b.ListPointedBy(o); !sameSet(ga, gb) {
			t.Fatalf("%s: ListPointedBy(%d): %v vs %v", what, o, ga, gb)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

// TestV2RoundTrip: a built index serialized as PES2 and re-opened through
// every load path — LoadMapped over the buffer, Load over a reader, and a
// real mmap via OpenFile — answers every query identically.
func TestV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pms := []struct {
		name string
		mk   func() *Index
	}{
		{"paper", func() *Index { return Build(paperPM(), &Options{Order: paperOrder}).Index() }},
		{"paper-noprune", func() *Index { return Build(paperPM(), &Options{Order: paperOrder, DisablePruning: true}).Index() }},
		{"random", func() *Index { return Build(randomPM(rng, 60, 30, 400), nil).Index() }},
		{"empty", func() *Index { return Build(randomPM(rng, 5, 3, 0), nil).Index() }},
	}
	for _, tc := range pms {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.mk()
			img := v2Image(t, ix)

			mapped, err := LoadMapped(img, nil)
			if err != nil {
				t.Fatalf("LoadMapped: %v", err)
			}
			if !mapped.Mapped() {
				t.Fatal("LoadMapped index does not report Mapped")
			}
			if got := mapped.MemoryFootprint(); got != int64(len(img)) {
				t.Fatalf("mapped MemoryFootprint = %d, want image size %d", got, len(img))
			}
			queriesEqual(t, "LoadMapped", ix, mapped)

			viaReader, err := Load(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			queriesEqual(t, "Load", ix, viaReader)

			path := filepath.Join(t.TempDir(), "ix.pes")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			open, err := OpenFile(path)
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			defer open.Close()
			if !open.Mapped() {
				t.Fatal("OpenFile of a PES2 file did not map it")
			}
			queriesEqual(t, "OpenFile", ix, open)

			// Serializing the zero-copy view must reproduce the image
			// byte for byte — PES2 is a fixed point of open∘write.
			if again := v2Image(t, open); !bytes.Equal(img, again) {
				t.Fatal("re-serialized mapped index differs from its source image")
			}
		})
	}
}

// TestV2Deterministic: the PES2 bytes are identical however the index was
// produced — in-memory index assembly or a v1 round trip through the
// decoder — with pruning on and off (pruning-off columns hold nested
// ranges, which the decoder's dedup drops).
func TestV2Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pm := randomPM(rng, 50, 25, 300)
	for _, opts := range []*Options{nil, {DisablePruning: true}} {
		trie := Build(pm, opts)
		var v1 bytes.Buffer
		if _, err := trie.WriteTo(&v1); err != nil {
			t.Fatal(err)
		}
		decoded, err := Load(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		a := v2Image(t, trie.Index())
		b := v2Image(t, decoded)
		if !bytes.Equal(a, b) {
			t.Fatalf("opts %+v: PES2 images differ across producers: %d/%d bytes", opts, len(a), len(b))
		}
	}
}

// TestV2Layout pins the on-disk constants and the listEntry record layout
// the mapped reader aliases. A failure here is a format break: bump the
// version instead of shipping it.
func TestV2Layout(t *testing.T) {
	if listEntrySize != 12 || unsafe.Sizeof(listEntry{}) != 12 {
		t.Fatalf("listEntry size = %d, want 12", unsafe.Sizeof(listEntry{}))
	}
	if o := unsafe.Offsetof(listEntry{}.lo); o != 0 {
		t.Fatalf("listEntry.lo at offset %d, want 0", o)
	}
	if o := unsafe.Offsetof(listEntry{}.hi); o != 4 {
		t.Fatalf("listEntry.hi at offset %d, want 4", o)
	}
	if o := unsafe.Offsetof(listEntry{}.case1); o != 8 {
		t.Fatalf("listEntry.case1 at offset %d, want 8", o)
	}
	if o := unsafe.Offsetof(listEntry{}.mirror); o != 9 {
		t.Fatalf("listEntry.mirror at offset %d, want 9", o)
	}
	if v2HeaderSize != 240 {
		t.Fatalf("v2HeaderSize = %d, want 240", v2HeaderSize)
	}

	ix := Build(paperPM(), &Options{Order: paperOrder}).Index()
	img := v2Image(t, ix)
	le := binary.LittleEndian
	if string(img[0:4]) != "PES2" || le.Uint32(img[4:]) != 2 {
		t.Fatalf("bad header prefix % x", img[:8])
	}
	if got := le.Uint64(img[32:]); got != uint64(len(img)) {
		t.Fatalf("header fileSize %d, image %d", got, len(img))
	}
	prevEnd := uint64(v2HeaderSize)
	for i := 0; i < v2NumSections; i++ {
		off := le.Uint64(img[64+16*i:])
		length := le.Uint64(img[64+16*i+8:])
		if off%v2Align != 0 {
			t.Fatalf("section %d offset %d not page-aligned", i, off)
		}
		if off < prevEnd {
			t.Fatalf("section %d at %d overlaps previous end %d", i, off, prevEnd)
		}
		prevEnd = off + length
	}
	if prevEnd != uint64(len(img)) {
		t.Fatalf("sections end at %d, image has %d bytes", prevEnd, len(img))
	}
}

// TestV2TruncationSweep: every strict prefix of a valid image must fail
// with an error — never a panic, never a silent success.
func TestV2TruncationSweep(t *testing.T) {
	img := v2Image(t, Build(paperPM(), &Options{Order: paperOrder}).Index())
	step := 1
	if len(img) > 16384 {
		step = len(img) / 8192
	}
	for n := 0; n < len(img); n += step {
		if _, err := LoadMapped(img[:n], nil); err == nil {
			t.Fatalf("LoadMapped accepted a %d-byte prefix of a %d-byte image", n, len(img))
		}
	}
}

// TestV2Corruptions drives targeted single-field corruptions through the
// reader: every one must error cleanly.
func TestV2Corruptions(t *testing.T) {
	base := v2Image(t, Build(paperPM(), &Options{Order: paperOrder}).Index())
	le := binary.LittleEndian
	put32 := func(img []byte, off int, v uint32) { le.PutUint32(img[off:], v) }
	put64 := func(img []byte, off int, v uint64) { le.PutUint64(img[off:], v) }
	secOff := func(i int) int { return 64 + 16*i }

	cases := []struct {
		name    string
		corrupt func(img []byte)
	}{
		{"version", func(img []byte) { put32(img, 4, 3) }},
		{"flags", func(img []byte) { put32(img, 8, 1) }},
		{"pointer-count-bomb", func(img []byte) { put32(img, 12, 1<<30+1) }},
		{"group-count-implausible", func(img []byte) { put32(img, 20, 1<<29) }},
		{"file-size-lies", func(img []byte) { put64(img, 32, uint64(len(img)+1)) }},
		{"section-count", func(img []byte) { put32(img, 28, 12) }},
		{"section-misaligned", func(img []byte) {
			put64(img, secOff(secPointerTS), le.Uint64(img[secOff(secPointerTS):])+2)
		}},
		{"section-into-header", func(img []byte) { put64(img, secOff(secPointerTS), 8) }},
		{"section-overlap", func(img []byte) {
			// Point objectTS at pointerTS's offset: overlaps section 0.
			put64(img, secOff(secObjectTS), le.Uint64(img[secOff(secPointerTS):]))
		}},
		{"section-past-eof", func(img []byte) { put64(img, secOff(secEnts), uint64(alignUp(int64(len(img))))) }},
		{"section-length-bomb", func(img []byte) { put64(img, secOff(secEnts)+8, 1<<40) }},
		{"pointer-ts-oob", func(img []byte) {
			off := int(le.Uint64(img[secOff(secPointerTS):]))
			put32(img, off, le.Uint32(img[20:])) // timestamp == numGroups
		}},
		{"pointer-ts-negative", func(img []byte) {
			off := int(le.Uint64(img[secOff(secPointerTS):]))
			put32(img, off, uint32(0xfffffffe)) // -2: only -1 means unplaced
		}},
		{"object-ts-oob", func(img []byte) {
			off := int(le.Uint64(img[secOff(secObjectTS):]))
			put32(img, off, le.Uint32(img[20:]))
		}},
		{"start-table-decreasing", func(img []byte) {
			off := int(le.Uint64(img[secOff(secStartOfTS):]))
			put32(img, off+4, 1<<20)
		}},
		{"flat-wrong-bucket", func(img []byte) {
			off := int(le.Uint64(img[secOff(secPtrsFlat):]))
			put32(img, off, le.Uint32(img[off:])+1)
		}},
		{"origin-not-at-zero", func(img []byte) {
			off := int(le.Uint64(img[secOff(secOriginTS):]))
			put32(img, off, 1)
		}},
		{"pes-end-wrong", func(img []byte) {
			off := int(le.Uint64(img[secOff(secPesEnd):]))
			put32(img, off, le.Uint32(img[off:])+1)
		}},
		{"pes-of-ts-wrong", func(img []byte) {
			off := int(le.Uint64(img[secOff(secPesOfTS):]))
			put32(img, off, 7)
		}},
		{"ent-flag-byte", func(img []byte) {
			off := int(le.Uint64(img[secOff(secEnts):]))
			img[off+8] = 2
		}},
		{"ent-padding-byte", func(img []byte) {
			off := int(le.Uint64(img[secOff(secEnts):]))
			img[off+11] = 1
		}},
		{"ent-range-oob", func(img []byte) {
			off := int(le.Uint64(img[secOff(secEnts):]))
			put32(img, off+4, 1<<20) // hi way past the axis
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), base...)
			tc.corrupt(img)
			ix, err := LoadMapped(img, nil)
			if err == nil {
				t.Fatalf("corruption %q was accepted", tc.name)
			}
			if ix != nil {
				t.Fatalf("corruption %q returned a non-nil index alongside %v", tc.name, err)
			}
		})
	}
}

// TestV2CloseIdempotent: Close releases the backing exactly once and is
// nil-safe for heap indexes.
func TestV2CloseIdempotent(t *testing.T) {
	calls := 0
	img := v2Image(t, Build(paperPM(), &Options{Order: paperOrder}).Index())
	ix, err := LoadMapped(img, func() error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("closer ran %d times, want 1", calls)
	}
	heap := Build(paperPM(), &Options{Order: paperOrder}).Index()
	if heap.Mapped() {
		t.Fatal("heap index reports Mapped")
	}
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV2QuickRandom hammers the round trip across random matrices,
// including pruning-off builds whose columns carry nested ranges.
func TestV2QuickRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		np, no := 1+rng.Intn(40), 1+rng.Intn(20)
		pm := randomPM(rng, np, no, rng.Intn(300))
		opts := &Options{DisablePruning: i%2 == 0}
		ix := Build(pm, opts).Index()
		got, err := LoadMapped(v2Image(t, ix), nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !indexMatches(got, pm) {
			t.Fatalf("iteration %d: mapped index does not match the matrix", i)
		}
	}
}

// TestV2ViewsAlias pins the zero-copy property itself: on little-endian
// hosts the mapped index's arrays point into the image, not at copies.
func TestV2ViewsAlias(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing fast path requires a little-endian host")
	}
	img := v2Image(t, Build(paperPM(), &Options{Order: paperOrder}).Index())
	ix, err := LoadMapped(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	inImage := func(p unsafe.Pointer) bool {
		base := uintptr(unsafe.Pointer(&img[0]))
		return uintptr(p) >= base && uintptr(p) < base+uintptr(len(img))
	}
	if len(ix.pointerTS) > 0 && !inImage(unsafe.Pointer(&ix.pointerTS[0])) {
		t.Fatal("pointerTS was copied, not aliased")
	}
	if len(ix.ents) > 0 && !inImage(unsafe.Pointer(&ix.ents[0])) {
		t.Fatal("ents was copied, not aliased")
	}
}
