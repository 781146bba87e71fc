// Package bitenc implements the bitmap persistence baseline ("BitP") the
// paper compares Pestrie against (§2.1, §7): the points-to matrix PM and the
// alias matrix AM = PM × PMᵀ are stored as sparse bitmaps after merging
// equivalent pointers and objects. Queries are answered directly from the
// bitmaps, so IsAlias costs a bitmap bit-lookup — O(n) through the linked
// block list — while ListAliases is a pre-computed row expansion.
//
// The rows are GCC-style linked bitmaps (internal/bitmap), the structure
// the paper measures, whatever set type the rest of the pipeline uses.
package bitenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pestrie/internal/bitmap"
	"pestrie/internal/matrix"
	"pestrie/internal/safeio"
)

const (
	bitMagic   = "BIT1"
	bitVersion = 1
)

// Encoding is the in-memory BitP structure: class-compressed PM, its
// transpose, and the class-level alias matrix. Every row is allocated; an
// empty row holds no block. Queries are not safe for concurrent use: a
// bitmap lookup moves the row's block cache, as in GCC.
type Encoding struct {
	NumPointers int
	NumObjects  int

	ptrClassOf []int // pointer -> pointer class
	objClassOf []int // object -> object class
	ptrMembers [][]int32
	objMembers [][]int32

	pm  []*bitmap.Sparse // pointer class -> object classes
	pmt []*bitmap.Sparse // object class -> pointer classes
	am  []*bitmap.Sparse // pointer class -> pointer classes
}

// Encode builds the BitP encoding of pm: detect pointer and object
// equivalence classes, compress PM to class granularity, and materialize
// the alias matrix over pointer classes.
func Encode(pm *matrix.PointsTo) *Encoding {
	ptrClassOf, nPtrClasses := pm.EquivalenceClasses()
	objClassOf, nObjClasses := pm.ObjectEquivalenceClasses()

	e := &Encoding{
		NumPointers: pm.NumPointers,
		NumObjects:  pm.NumObjects,
		ptrClassOf:  ptrClassOf,
		objClassOf:  objClassOf,
	}
	e.buildMembers()

	e.pm = make([]*bitmap.Sparse, nPtrClasses)
	for p := 0; p < pm.NumPointers; p++ {
		c := ptrClassOf[p]
		if e.pm[c] != nil {
			continue
		}
		row := bitmap.New()
		pm.Row(p).ForEach(func(o int) bool {
			row.Set(objClassOf[o])
			return true
		})
		e.pm[c] = row
	}
	// AM's row for class c is the union of the PMT rows of the object
	// classes c points to (§2.1).
	e.pmt = bitmap.Transpose(e.pm, nObjClasses)
	e.am = make([]*bitmap.Sparse, nPtrClasses)
	for c, r := range e.pm {
		row := bitmap.New()
		r.ForEach(func(o int) bool {
			row.Or(e.pmt[o])
			return true
		})
		e.am[c] = row
	}
	return e
}

func (e *Encoding) buildMembers() {
	maxPtr, maxObj := 0, 0
	for _, c := range e.ptrClassOf {
		if c+1 > maxPtr {
			maxPtr = c + 1
		}
	}
	for _, c := range e.objClassOf {
		if c+1 > maxObj {
			maxObj = c + 1
		}
	}
	e.ptrMembers = make([][]int32, maxPtr)
	for p, c := range e.ptrClassOf {
		e.ptrMembers[c] = append(e.ptrMembers[c], int32(p))
	}
	e.objMembers = make([][]int32, maxObj)
	for o, c := range e.objClassOf {
		e.objMembers[c] = append(e.objMembers[c], int32(o))
	}
}

// IsAlias reports whether p and q may alias: an AM bit test at class
// granularity.
func (e *Encoding) IsAlias(p, q int) bool {
	if p < 0 || p >= e.NumPointers || q < 0 || q >= e.NumPointers {
		return false
	}
	return e.am[e.ptrClassOf[p]].Test(e.ptrClassOf[q])
}

// ListAliases returns the pointers aliased to p, excluding p itself.
func (e *Encoding) ListAliases(p int) []int {
	if p < 0 || p >= e.NumPointers {
		return nil
	}
	var out []int
	e.am[e.ptrClassOf[p]].ForEach(func(c int) bool {
		for _, q := range e.ptrMembers[c] {
			if int(q) != p {
				out = append(out, int(q))
			}
		}
		return true
	})
	return out
}

// ListPointsTo returns the objects p may point to.
func (e *Encoding) ListPointsTo(p int) []int {
	if p < 0 || p >= e.NumPointers {
		return nil
	}
	var out []int
	e.pm[e.ptrClassOf[p]].ForEach(func(c int) bool {
		for _, o := range e.objMembers[c] {
			out = append(out, int(o))
		}
		return true
	})
	return out
}

// ListPointedBy returns the pointers that may point to o.
func (e *Encoding) ListPointedBy(o int) []int {
	if o < 0 || o >= e.NumObjects {
		return nil
	}
	var out []int
	e.pmt[e.objClassOf[o]].ForEach(func(c int) bool {
		for _, q := range e.ptrMembers[c] {
			out = append(out, int(q))
		}
		return true
	})
	return out
}

// Footprint model of a linked row: 40 bytes per 128-bit block, index and
// two words plus next pointer and allocator overhead (GCC's element size
// ballpark), which also absorbs the row's own header. A row with no block
// has nothing to absorb its header into, so it is charged one.
const (
	blockBytes    = 40
	emptyRowBytes = 48
)

// MemoryFootprint estimates the resident size of the query structure in
// bytes: the linked blocks of PM, PMT and AM, an empty row's header, and
// 8 bytes per class-map entry.
func (e *Encoding) MemoryFootprint() int64 {
	var rows int64
	for _, m := range [][]*bitmap.Sparse{e.pm, e.pmt, e.am} {
		for _, r := range m {
			if n := r.Blocks(); n > 0 {
				rows += int64(n) * blockBytes
			} else {
				rows += emptyRowBytes
			}
		}
	}
	return rows + int64(len(e.ptrClassOf)+len(e.objClassOf))*8
}

// WriteTo writes the persistent BitP file: class maps, the class-level PM,
// and the class-level AM. (PMT is recomputed at load.) Returns bytes
// written.
func (e *Encoding) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		n, err := bw.Write(buf[:k])
		written += int64(n)
		return err
	}
	n, err := bw.WriteString(bitMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, v := range []uint64{bitVersion, uint64(e.NumPointers), uint64(e.NumObjects)} {
		if err := put(v); err != nil {
			return written, err
		}
	}
	for _, c := range e.ptrClassOf {
		if err := put(uint64(c)); err != nil {
			return written, err
		}
	}
	for _, c := range e.objClassOf {
		if err := put(uint64(c)); err != nil {
			return written, err
		}
	}
	// PM is pointer classes × object classes (PMT has a row per object
	// class), and AM is square over pointer classes.
	k, err := matrix.WriteRows(bw, e.pm, len(e.pmt))
	written += k
	if err != nil {
		return written, err
	}
	k, err = matrix.WriteRows(bw, e.am, len(e.am))
	written += k
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// EncodedSize returns the BitP file size in bytes without real I/O.
func (e *Encoding) EncodedSize() int64 {
	n, _ := e.WriteTo(discard{})
	return n
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Load reads a BitP file written by WriteTo.
func Load(r io.Reader) (*Encoding, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(bitMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bitenc: reading magic: %w", err)
	}
	if string(magic) != bitMagic {
		return nil, fmt.Errorf("bitenc: bad magic %q", magic)
	}
	u := func(what string) (int, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("bitenc: reading %s: %w", what, err)
		}
		if v > 1<<30 {
			return 0, fmt.Errorf("bitenc: implausible %s %d", what, v)
		}
		return int(v), nil
	}
	ver, err := u("version")
	if err != nil {
		return nil, err
	}
	if ver != bitVersion {
		return nil, fmt.Errorf("bitenc: unsupported version %d", ver)
	}
	e := &Encoding{}
	if e.NumPointers, err = u("pointer count"); err != nil {
		return nil, err
	}
	if e.NumObjects, err = u("object count"); err != nil {
		return nil, err
	}
	// Class maps grow as entries arrive instead of trusting the header
	// counts, so a truncated file claiming 2³⁰ pointers fails on a short
	// read instead of forcing a multi-GiB allocation.
	e.ptrClassOf = make([]int, 0, safeio.Cap(e.NumPointers))
	for i := 0; i < e.NumPointers; i++ {
		c, err := u("pointer class")
		if err != nil {
			return nil, err
		}
		e.ptrClassOf = append(e.ptrClassOf, c)
	}
	e.objClassOf = make([]int, 0, safeio.Cap(e.NumObjects))
	for i := 0; i < e.NumObjects; i++ {
		c, err := u("object class")
		if err != nil {
			return nil, err
		}
		e.objClassOf = append(e.objClassOf, c)
	}
	var pmObjs, amCols int
	if e.pm, pmObjs, err = matrix.ReadRows(br, bitmap.ReadSparse); err != nil {
		return nil, fmt.Errorf("bitenc: PM: %w", err)
	}
	if e.am, amCols, err = matrix.ReadRows(br, bitmap.ReadSparse); err != nil {
		return nil, fmt.Errorf("bitenc: AM: %w", err)
	}
	// Encode numbers classes densely, so the class matrices must agree
	// exactly with the class maps: PM is nPtrClasses × nObjClasses and AM
	// is square over pointer classes. Anything else would let row bits
	// index past the member tables built from the maps.
	nPtr, nObj := 0, 0
	for _, c := range e.ptrClassOf {
		if c+1 > nPtr {
			nPtr = c + 1
		}
	}
	for _, c := range e.objClassOf {
		if c+1 > nObj {
			nObj = c + 1
		}
	}
	if len(e.pm) != nPtr || pmObjs != nObj {
		return nil, fmt.Errorf("bitenc: class PM is %d×%d but class maps define %d×%d classes",
			len(e.pm), pmObjs, nPtr, nObj)
	}
	if len(e.am) != nPtr || amCols != nPtr {
		return nil, fmt.Errorf("bitenc: AM is %d×%d, want %d×%d over pointer classes",
			len(e.am), amCols, nPtr, nPtr)
	}
	e.pmt = bitmap.Transpose(e.pm, nObj)
	e.buildMembers()
	return e, nil
}
