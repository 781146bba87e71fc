package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"pestrie/internal/safeio"
)

// PES2 — the zero-copy persistent format. Where PES1 (file.go) persists
// the *construction* output (delta-varint rectangles that must be decoded
// and re-indexed on every load), PES2 persists the *query* structure: the
// exact flat arrays of Index, as little-endian fixed-width columns behind
// a fixed header and section table. Opening a PES2 file is mmap plus
// header/bounds validation — no per-rectangle decode, no allocation
// proportional to the index — which is the paper's "answer queries from
// the persistent file" claim taken literally.
//
//	offset  size  field
//	0       4     magic "PES2"
//	4       4     u32 version (2)
//	8       4     u32 flags (0)
//	12      4     u32 numPointers
//	16      4     u32 numObjects
//	20      4     u32 numGroups
//	24      4     u32 rectCount
//	28      4     u32 sectionCount (11)
//	32      8     u64 fileSize (whole file, truncation check)
//	40      24    reserved, zero
//	64      176   section table: 11 × { u64 offset, u64 length }
//
// Sections appear in table order, each offset page-aligned (v2Align), the
// gaps zero-filled. All integers are little-endian int32; the ents section
// holds 12-byte records matching listEntry's memory layout exactly
// (lo i32, hi i32, case1 u8, mirror u8, 2 zero bytes), so a little-endian
// host aliases it without touching a single record.
//
//	#   section    elements
//	0   pointerTS  numPointers
//	1   objectTS   numObjects
//	2   ptrsFlat   placed pointers (implied by section length)
//	3   startOfTS  numGroups+1
//	4   objsFlat   numObjects
//	5   objStart   numGroups+1
//	6   originTS   numPES (implied by section length)
//	7   pesEnd     numPES
//	8   pesOfTS    numGroups
//	9   entStart   numGroups+1
//	10  ents       column entries (implied by section length, ×12 bytes)
//
// The reader treats the file as untrusted: every offset/length pair goes
// through safeio.Section before the first dereference, and the full set of
// structural invariants queries rely on (timestamp ranges, counting-sort
// exactness of the flat arrays, PES interval tiling, per-column sort
// order) is re-established by validate() — O(n) sequential scans over the
// mapped columns, no allocation, no decode.
const (
	v2Magic       = "PES2"
	v2Version     = 2
	v2Align       = 4096
	v2NumSections = 11
	v2HeaderSize  = 64 + v2NumSections*16
)

// Section indices, in file order.
const (
	secPointerTS = iota
	secObjectTS
	secPtrsFlat
	secStartOfTS
	secObjsFlat
	secObjStart
	secOriginTS
	secPesEnd
	secPesOfTS
	secEntStart
	secEnts
)

// Compile-time pins of the listEntry memory layout the ents section
// aliases; a compiler or struct change that moves a field fails the build
// (negative or out-of-range constant index) before it can corrupt files.
var (
	_ = [1]byte{}[unsafe.Sizeof(listEntry{})-listEntrySize]
	_ = [1]byte{}[unsafe.Offsetof(listEntry{}.lo)-0]
	_ = [1]byte{}[unsafe.Offsetof(listEntry{}.hi)-4]
	_ = [1]byte{}[unsafe.Offsetof(listEntry{}.case1)-8]
	_ = [1]byte{}[unsafe.Offsetof(listEntry{}.mirror)-9]
)

// hostLittleEndian gates the aliasing fast path; big-endian hosts fall
// back to an element-wise copy (still no varint decode, one pass).
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(n int64) int64 { return (n + v2Align - 1) &^ (v2Align - 1) }

// v2Layout computes the section table for an index: byte lengths, aligned
// offsets, and the total file size.
func (ix *Index) v2Layout() (offs, lens [v2NumSections]int64, fileSize int64) {
	ng := int64(ix.NumGroups)
	lens = [v2NumSections]int64{
		secPointerTS: 4 * int64(len(ix.pointerTS)),
		secObjectTS:  4 * int64(len(ix.objectTS)),
		secPtrsFlat:  4 * int64(len(ix.ptrsFlat)),
		secStartOfTS: 4 * (ng + 1),
		secObjsFlat:  4 * int64(len(ix.objsFlat)),
		secObjStart:  4 * (ng + 1),
		secOriginTS:  4 * int64(len(ix.originTS)),
		secPesEnd:    4 * int64(len(ix.pesEnd)),
		secPesOfTS:   4 * ng,
		secEntStart:  4 * (ng + 1),
		secEnts:      listEntrySize * int64(len(ix.ents)),
	}
	cur := int64(v2HeaderSize)
	for i := range lens {
		cur = alignUp(cur)
		offs[i] = cur
		cur += lens[i]
	}
	return offs, lens, cur
}

// WriteToV2 writes the index in the PES2 zero-copy format and returns the
// bytes written. The output is a pure function of the index contents, so
// the emitted file is byte-identical however the index was produced.
func (ix *Index) WriteToV2(w io.Writer) (int64, error) {
	offs, lens, fileSize := ix.v2Layout()
	bw := bufio.NewWriter(w)
	var hdr [v2HeaderSize]byte
	copy(hdr[0:4], v2Magic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], v2Version)
	le.PutUint32(hdr[8:], 0) // flags
	le.PutUint32(hdr[12:], uint32(ix.NumPointers))
	le.PutUint32(hdr[16:], uint32(ix.NumObjects))
	le.PutUint32(hdr[20:], uint32(ix.NumGroups))
	le.PutUint32(hdr[24:], uint32(ix.rectCount))
	le.PutUint32(hdr[28:], v2NumSections)
	le.PutUint64(hdr[32:], uint64(fileSize))
	for i := 0; i < v2NumSections; i++ {
		le.PutUint64(hdr[64+16*i:], uint64(offs[i]))
		le.PutUint64(hdr[64+16*i+8:], uint64(lens[i]))
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}

	pos := int64(v2HeaderSize)
	var pad [v2Align]byte
	emit := func(i int, payload func() error) error {
		for pos < offs[i] {
			n := offs[i] - pos
			if n > v2Align {
				n = v2Align
			}
			k, err := bw.Write(pad[:n])
			pos += int64(k)
			if err != nil {
				return err
			}
		}
		if err := payload(); err != nil {
			return err
		}
		pos += lens[i]
		return nil
	}
	ints := func(xs []int32) func() error {
		return func() error {
			var buf [4096]byte
			k := 0
			for _, x := range xs {
				le.PutUint32(buf[k:], uint32(x))
				if k += 4; k == len(buf) {
					if _, err := bw.Write(buf[:]); err != nil {
						return err
					}
					k = 0
				}
			}
			_, err := bw.Write(buf[:k])
			return err
		}
	}
	ents := func() error {
		var buf [4092]byte // multiple of listEntrySize
		k := 0
		for _, e := range ix.ents {
			le.PutUint32(buf[k:], uint32(e.lo))
			le.PutUint32(buf[k+4:], uint32(e.hi))
			buf[k+8] = b2u(e.case1)
			buf[k+9] = b2u(e.mirror)
			buf[k+10], buf[k+11] = 0, 0
			if k += listEntrySize; k == len(buf) {
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
				k = 0
			}
		}
		_, err := bw.Write(buf[:k])
		return err
	}
	payloads := [v2NumSections]func() error{
		secPointerTS: ints(ix.pointerTS),
		secObjectTS:  ints(ix.objectTS),
		secPtrsFlat:  ints(ix.ptrsFlat),
		secStartOfTS: ints(ix.startOfTS),
		secObjsFlat:  ints(ix.objsFlat),
		secObjStart:  ints(ix.objStart),
		secOriginTS:  ints(ix.originTS),
		secPesEnd:    ints(ix.pesEnd),
		secPesOfTS:   ints(ix.pesOfTS),
		secEntStart:  ints(ix.entStart),
		secEnts:      ents,
	}
	for i := range payloads {
		if err := emit(i, payloads[i]); err != nil {
			return pos, err
		}
	}
	if err := bw.Flush(); err != nil {
		return pos, err
	}
	return fileSize, nil
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// LoadMapped builds a zero-copy index over a PES2 image. data is aliased,
// not copied: it must stay immutable and mapped for the life of the index,
// and closer (which may be nil) is invoked by Index.Close to release it.
// The image is untrusted — every section is bounds-checked before use and
// every structural invariant the queries rely on is verified — so a
// malformed file yields an error, never a panic or an out-of-mapping read.
func LoadMapped(data []byte, closer func() error) (*Index, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("pestrie: PES2 image truncated: %d bytes", len(data))
	}
	// A cold open is about to sweep every section front to back (the
	// validate pass below), so ask the kernel for aggressive readahead and
	// start faulting pages in now; drop back to normal readahead once
	// validation is done and access turns into point queries. Best effort —
	// heap-backed images simply ignore the hints.
	safeio.Advise(data, safeio.AdviceSequential)
	safeio.Advise(data, safeio.AdviceWillNeed)
	defer safeio.Advise(data, safeio.AdviceNormal)
	if string(data[0:4]) != v2Magic {
		return nil, fmt.Errorf("pestrie: bad magic %q", data[0:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != v2Version {
		return nil, fmt.Errorf("pestrie: unsupported PES2 version %d", v)
	}
	if f := le.Uint32(data[8:]); f != 0 {
		return nil, fmt.Errorf("pestrie: unsupported PES2 flags %#x", f)
	}
	u := func(off int, what string) (int, error) {
		v := le.Uint32(data[off:])
		if v > maxCount {
			return 0, fmt.Errorf("pestrie: implausible %s %d", what, v)
		}
		return int(v), nil
	}
	numPointers, err := u(12, "pointer count")
	if err != nil {
		return nil, err
	}
	numObjects, err := u(16, "object count")
	if err != nil {
		return nil, err
	}
	numGroups, err := u(20, "group count")
	if err != nil {
		return nil, err
	}
	rectCount, err := u(24, "rectangle count")
	if err != nil {
		return nil, err
	}
	if numGroups > numPointers+numObjects {
		return nil, fmt.Errorf("pestrie: implausible group count %d for %d pointers and %d objects",
			numGroups, numPointers, numObjects)
	}
	if n := le.Uint32(data[28:]); n != v2NumSections {
		return nil, fmt.Errorf("pestrie: PES2 section count %d, want %d", n, v2NumSections)
	}
	if sz := le.Uint64(data[32:]); sz != uint64(len(data)) {
		return nil, fmt.Errorf("pestrie: PES2 header claims %d bytes, file has %d", sz, len(data))
	}

	// Section table: offsets must be in table order, 4-aligned, past the
	// header, non-overlapping, and inside the file — all checked before
	// the first section byte is touched.
	var secs [v2NumSections][]byte
	prevEnd := uint64(v2HeaderSize)
	for i := 0; i < v2NumSections; i++ {
		off := le.Uint64(data[64+16*i:])
		length := le.Uint64(data[64+16*i+8:])
		if off%4 != 0 {
			return nil, fmt.Errorf("pestrie: PES2 section %d misaligned at offset %d", i, off)
		}
		if off < prevEnd {
			return nil, fmt.Errorf("pestrie: PES2 section %d at offset %d overlaps preceding bytes ending at %d", i, off, prevEnd)
		}
		s, err := safeio.Section(data, off, length)
		if err != nil {
			return nil, fmt.Errorf("pestrie: PES2 section %d: %w", i, err)
		}
		secs[i] = s
		prevEnd = off + length
	}

	// Exact element counts where the header determines them; the rest are
	// implied by their section length and cross-checked by validate.
	want := map[int]int{
		secPointerTS: numPointers * 4,
		secObjectTS:  numObjects * 4,
		secStartOfTS: (numGroups + 1) * 4,
		secObjsFlat:  numObjects * 4,
		secObjStart:  (numGroups + 1) * 4,
		secPesOfTS:   numGroups * 4,
		secEntStart:  (numGroups + 1) * 4,
	}
	for i, n := range want {
		if len(secs[i]) != n {
			return nil, fmt.Errorf("pestrie: PES2 section %d is %d bytes, want %d", i, len(secs[i]), n)
		}
	}
	for _, i := range []int{secPtrsFlat, secOriginTS, secPesEnd} {
		if len(secs[i])%4 != 0 {
			return nil, fmt.Errorf("pestrie: PES2 section %d length %d not a multiple of 4", i, len(secs[i]))
		}
	}
	if len(secs[secOriginTS]) != len(secs[secPesEnd]) {
		return nil, fmt.Errorf("pestrie: PES2 origin table %d bytes but PES-end table %d",
			len(secs[secOriginTS]), len(secs[secPesEnd]))
	}
	if len(secs[secEnts])%listEntrySize != 0 {
		return nil, fmt.Errorf("pestrie: PES2 ents section length %d not a multiple of %d", len(secs[secEnts]), listEntrySize)
	}

	ents, err := entView(secs[secEnts])
	if err != nil {
		return nil, err
	}
	ix := &Index{
		NumPointers: numPointers,
		NumObjects:  numObjects,
		NumGroups:   numGroups,
		pointerTS:   int32View(secs[secPointerTS]),
		objectTS:    int32View(secs[secObjectTS]),
		ptrsFlat:    int32View(secs[secPtrsFlat]),
		startOfTS:   int32View(secs[secStartOfTS]),
		objsFlat:    int32View(secs[secObjsFlat]),
		objStart:    int32View(secs[secObjStart]),
		originTS:    int32View(secs[secOriginTS]),
		pesEnd:      int32View(secs[secPesEnd]),
		pesOfTS:     int32View(secs[secPesOfTS]),
		entStart:    int32View(secs[secEntStart]),
		ents:        ents,
		rectCount:   rectCount,
	}
	if err := ix.validate(); err != nil {
		return nil, err
	}
	ix.backing = int64(len(data))
	ix.closer = closer
	return ix, nil
}

// int32View reinterprets a little-endian byte section as []int32 — an
// alias on little-endian hosts when the section is 4-aligned (mmap bases
// are page-aligned and section offsets are checked, so it always is for
// mapped files), an element-wise copy otherwise.
func int32View(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// entView reinterprets the ents section as []listEntry. The flag and
// padding bytes are vetted first: a bool backed by a byte other than 0/1
// has unspecified behavior, so forged records are rejected before any
// record is viewed through the struct type.
func entView(b []byte) ([]listEntry, error) {
	n := len(b) / listEntrySize
	for i := 0; i < n; i++ {
		rec := b[i*listEntrySize:]
		if rec[8] > 1 || rec[9] > 1 || rec[10] != 0 || rec[11] != 0 {
			return nil, fmt.Errorf("pestrie: PES2 column entry %d has malformed flag bytes %v", i, rec[8:12])
		}
	}
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*listEntry)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]listEntry, n)
	for i := range out {
		rec := b[i*listEntrySize:]
		out[i] = listEntry{
			lo:     int32(binary.LittleEndian.Uint32(rec)),
			hi:     int32(binary.LittleEndian.Uint32(rec[4:])),
			case1:  rec[8] == 1,
			mirror: rec[9] == 1,
		}
	}
	return out, nil
}

// validate re-establishes, over untrusted mapped columns, every structural
// invariant buildIndex guarantees for decoded files — the properties the
// query methods index by without further checks. Cost is O(n) sequential
// passes with no allocation; a file that passes answers every query
// without panicking (the same contract FuzzLoad pins for PES1).
func (ix *Index) validate() error {
	ng := ix.NumGroups
	placed := 0
	for p, ts := range ix.pointerTS {
		if ts < -1 || int(ts) >= ng {
			return fmt.Errorf("pestrie: pointer %d timestamp %d out of range", p, ts)
		}
		if ts >= 0 {
			placed++
		}
	}
	for o, ts := range ix.objectTS {
		if ts < 0 || int(ts) >= ng {
			return fmt.Errorf("pestrie: object %d timestamp %d out of range", o, ts)
		}
	}
	if err := checkFlat("pointer", ix.ptrsFlat, ix.startOfTS, ix.pointerTS, placed); err != nil {
		return err
	}
	if err := checkFlat("object", ix.objsFlat, ix.objStart, ix.objectTS, len(ix.objectTS)); err != nil {
		return err
	}

	// The origin table must be exactly the non-empty object buckets, in
	// order, PES intervals tiling [0, numGroups) from timestamp 0.
	k := 0
	for ts := 0; ts < ng; ts++ {
		if ix.objStart[ts+1] > ix.objStart[ts] {
			if k >= len(ix.originTS) || int(ix.originTS[k]) != ts {
				return fmt.Errorf("pestrie: origin table does not match object buckets at timestamp %d", ts)
			}
			k++
		}
	}
	if k != len(ix.originTS) {
		return fmt.Errorf("pestrie: origin table has %d entries beyond the object buckets", len(ix.originTS)-k)
	}
	if ng > 0 && (len(ix.originTS) == 0 || ix.originTS[0] != 0) {
		return fmt.Errorf("pestrie: no origin object at timestamp 0")
	}
	for k := range ix.originTS {
		end := int32(ng - 1)
		if k+1 < len(ix.originTS) {
			end = ix.originTS[k+1] - 1
		}
		if ix.pesEnd[k] != end {
			return fmt.Errorf("pestrie: PES %d ends at %d, want %d", k, ix.pesEnd[k], end)
		}
		for ts := ix.originTS[k]; ts <= end; ts++ {
			if ix.pesOfTS[ts] != int32(k) {
				return fmt.Errorf("pestrie: pesOfTS[%d] = %d, want %d", ts, ix.pesOfTS[ts], k)
			}
		}
	}

	// Columns: entry ranges inside the timestamp axis, sorted by lo — the
	// order entryCovering's binary search and ListAliases' sweep assume.
	if err := checkStart("column", ix.entStart, len(ix.ents)); err != nil {
		return err
	}
	for ts := 0; ts < ng; ts++ {
		prevLo := int32(-1)
		for _, e := range ix.col(ts) {
			if e.lo < 0 || e.lo > e.hi || int(e.hi) >= ng {
				return fmt.Errorf("pestrie: column %d entry range [%d, %d] out of bounds", ts, e.lo, e.hi)
			}
			if e.lo < prevLo {
				return fmt.Errorf("pestrie: column %d entries not sorted at lo %d", ts, e.lo)
			}
			prevLo = e.lo
		}
	}
	return nil
}

// checkStart validates a prefix-sum table: rooted at 0, non-decreasing,
// and accounting for exactly total elements. Every bucket slice taken
// through a table that passes is in bounds.
func checkStart(what string, start []int32, total int) error {
	if start[0] != 0 {
		return fmt.Errorf("pestrie: %s table starts at %d", what, start[0])
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			return fmt.Errorf("pestrie: %s table decreases at %d", what, i)
		}
	}
	if int(start[len(start)-1]) != total {
		return fmt.Errorf("pestrie: %s table accounts for %d elements, want %d", what, start[len(start)-1], total)
	}
	return nil
}

// checkFlat validates that (flat, start) is exactly the counting sort of
// keys: buckets strictly ascending, every member carrying the bucket's
// key, and the totals matching — which pins flat as a permutation of the
// placed IDs, the property ListAliases' two-pass count/fill relies on.
func checkFlat(what string, flat, start, keys []int32, placed int) error {
	if err := checkStart(what, start, len(flat)); err != nil {
		return err
	}
	if len(flat) != placed {
		return fmt.Errorf("pestrie: %d %ss in the flat array but %d placed", len(flat), what, placed)
	}
	for ts := 0; ts < len(start)-1; ts++ {
		prev := int32(-1)
		for _, id := range flat[start[ts]:start[ts+1]] {
			if id <= prev || int(id) >= len(keys) {
				return fmt.Errorf("pestrie: %s bucket %d member %d out of order or range", what, ts, id)
			}
			if int(keys[id]) != ts {
				return fmt.Errorf("pestrie: %s %d in bucket %d but has timestamp %d", what, id, ts, keys[id])
			}
			prev = id
		}
	}
	return nil
}

// OpenFile opens a persistent file as a query index, choosing the load
// path by magic: PES2 files are memory-mapped and served zero-copy (call
// Close when done; queries in flight must be drained first), PES1 files
// are decoded onto the heap as by Load.
func OpenFile(path string) (*Index, error) {
	data, closer, err := safeio.MapFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[0:4]) == v2Magic {
		ix, err := LoadMapped(data, closer)
		if err != nil {
			closer()
			return nil, err
		}
		return ix, nil
	}
	// PES1 (or garbage): decode off the mapping, then release it — the
	// heap index owns nothing. Decoding straight from the mapped bytes
	// skips the heap copy os.ReadFile would make.
	defer closer()
	return Load(bytes.NewReader(data))
}
