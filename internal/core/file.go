package core

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"pestrie/internal/safeio"
)

// Persistent file format ("PES1"), following Figure 5 of the paper:
//
//	magic "PES1", uvarint version
//	uvarint numPointers, numObjects, numGroups
//	numPointers × uvarint(timestamp+1)   // 0 encodes "unplaced"
//	numObjects  × uvarint(timestamp)
//	8 sections: {point, vline, hline, rect} × {case-1, case-2}
//	  each: uvarint count, then entries sorted by (X1, Y1) with X1
//	  delta-coded against the previous entry and widths/heights coded as
//	  differences — points need 2 integers and lines 3, which is where the
//	  paper's shape split saves space over uniform 4-integer rectangles.
const (
	fileMagic   = "PES1"
	fileVersion = 1

	// maxCount bounds every count a loader reads from a file header:
	// pointers, objects, groups and rectangles.
	maxCount = 1 << 30
)

type shapeClass int

const (
	shapePoint shapeClass = iota
	shapeVLine
	shapeHLine
	shapeRect
	numShapes
)

func classify(r Rect) shapeClass {
	switch {
	case r.IsPoint():
		return shapePoint
	case r.IsVLine():
		return shapeVLine
	case r.IsHLine():
		return shapeHLine
	default:
		return shapeRect
	}
}

type fileWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (fw *fileWriter) uvarint(v uint64) {
	if fw.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], v)
	n, err := fw.w.Write(buf[:k])
	fw.n += int64(n)
	fw.err = err
}

func (fw *fileWriter) bytes(b []byte) {
	if fw.err != nil {
		return
	}
	n, err := fw.w.Write(b)
	fw.n += int64(n)
	fw.err = err
}

// WriteTo writes the Pestrie persistent file and returns the bytes written.
func (t *Trie) WriteTo(w io.Writer) (int64, error) {
	fw := &fileWriter{w: bufio.NewWriter(w)}
	fw.bytes([]byte(fileMagic))
	fw.uvarint(fileVersion)
	fw.uvarint(uint64(t.NumPointers))
	fw.uvarint(uint64(t.NumObjects))
	fw.uvarint(uint64(t.NumGroups))
	for _, ts := range t.pointerTS {
		fw.uvarint(uint64(ts + 1))
	}
	for _, ts := range t.objectTS {
		fw.uvarint(uint64(ts))
	}

	// Bucket rectangles by (shape, case) and sort each bucket by (X1, Y1)
	// so X1 delta-coding is effective. Rectangles may share (X1, Y1), so
	// the bytes also depend on the order among ties: slices.SortFunc is
	// deterministic for a fixed input, and TestBuildDigests pins it.
	var buckets [numShapes][2][]Rect
	for _, r := range t.rects {
		c := 1
		if r.Case1 {
			c = 0
		}
		buckets[classify(r)][c] = append(buckets[classify(r)][c], r)
	}
	for s := shapePoint; s < numShapes; s++ {
		for c := 0; c < 2; c++ {
			bucket := buckets[s][c]
			slices.SortFunc(bucket, func(a, b Rect) int {
				if a.X1 != b.X1 {
					return cmp.Compare(a.X1, b.X1)
				}
				return cmp.Compare(a.Y1, b.Y1)
			})
			fw.uvarint(uint64(len(bucket)))
			prevX := 0
			for _, r := range bucket {
				fw.uvarint(uint64(r.X1 - prevX))
				prevX = r.X1
				switch s {
				case shapePoint:
					fw.uvarint(uint64(r.Y1))
				case shapeVLine:
					fw.uvarint(uint64(r.Y1))
					fw.uvarint(uint64(r.Y2 - r.Y1))
				case shapeHLine:
					fw.uvarint(uint64(r.X2 - r.X1))
					fw.uvarint(uint64(r.Y1))
				default:
					fw.uvarint(uint64(r.X2 - r.X1))
					fw.uvarint(uint64(r.Y1))
					fw.uvarint(uint64(r.Y2 - r.Y1))
				}
			}
		}
	}
	if fw.err != nil {
		return fw.n, fw.err
	}
	return fw.n, fw.w.Flush()
}

// EncodedSize returns the size in bytes of the persistent file without
// performing real I/O.
func (t *Trie) EncodedSize() int64 {
	n, _ := t.WriteTo(discard{})
	return n
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// fileContents is the decoded persistent file, shared by Load and Index
// construction.
type fileContents struct {
	numPointers, numObjects, numGroups int
	pointerTS, objectTS                []int
	rects                              []Rect
}

func readFile(r io.Reader) (*fileContents, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("pestrie: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("pestrie: bad magic %q", magic)
	}
	u := func(what string) (int, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("pestrie: reading %s: %w", what, err)
		}
		if v > maxCount {
			return 0, fmt.Errorf("pestrie: implausible %s %d", what, v)
		}
		return int(v), nil
	}
	ver, err := u("version")
	if err != nil {
		return nil, err
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("pestrie: unsupported version %d", ver)
	}
	fc := &fileContents{}
	if fc.numPointers, err = u("pointer count"); err != nil {
		return nil, err
	}
	if fc.numObjects, err = u("object count"); err != nil {
		return nil, err
	}
	if fc.numGroups, err = u("group count"); err != nil {
		return nil, err
	}
	// Every group holds at least one pointer or is an origin holding at
	// least one object (see partition in build.go), so legitimate files
	// have numGroups ≤ numPointers + numObjects. Rejecting the rest also
	// bounds buildIndex's per-group allocations by the number of timestamp
	// entries actually present in the input.
	if fc.numGroups > fc.numPointers+fc.numObjects {
		return nil, fmt.Errorf("pestrie: implausible group count %d for %d pointers and %d objects",
			fc.numGroups, fc.numPointers, fc.numObjects)
	}
	fc.pointerTS = make([]int, 0, safeio.Cap(fc.numPointers))
	for i := 0; i < fc.numPointers; i++ {
		v, err := u("pointer timestamp")
		if err != nil {
			return nil, err
		}
		if v-1 >= fc.numGroups {
			return nil, fmt.Errorf("pestrie: pointer %d timestamp %d out of range", i, v-1)
		}
		fc.pointerTS = append(fc.pointerTS, v-1)
	}
	originAtZero := false
	fc.objectTS = make([]int, 0, safeio.Cap(fc.numObjects))
	for i := 0; i < fc.numObjects; i++ {
		v, err := u("object timestamp")
		if err != nil {
			return nil, err
		}
		if v >= fc.numGroups {
			return nil, fmt.Errorf("pestrie: object %d timestamp %d out of range", i, v)
		}
		if v == 0 {
			originAtZero = true
		}
		fc.objectTS = append(fc.objectTS, v)
	}
	// Timestamp 0 always belongs to the first origin, so a well-formed
	// file with any groups at all has an object there. Queries rely on it:
	// they index originTS[pesOf(ts)] unconditionally, which panics when the
	// origin table is empty or starts past a placed pointer's timestamp.
	if fc.numGroups > 0 && !originAtZero {
		return nil, fmt.Errorf("pestrie: no origin object at timestamp 0")
	}
	// entries counts the column entries buildColumns will place: one per
	// timestamp of each rectangle side. entStart indexes them as int32.
	var entries int64
	for s := shapePoint; s < numShapes; s++ {
		for c := 0; c < 2; c++ {
			count, err := u("shape count")
			if err != nil {
				return nil, err
			}
			fc.rects = slices.Grow(fc.rects, safeio.Cap(count))
			prevX := 0
			for k := 0; k < count; k++ {
				var r Rect
				r.Case1 = c == 0
				dx, err := u("x1")
				if err != nil {
					return nil, err
				}
				r.X1 = prevX + dx
				prevX = r.X1
				switch s {
				case shapePoint:
					if r.Y1, err = u("y"); err != nil {
						return nil, err
					}
					r.X2, r.Y2 = r.X1, r.Y1
				case shapeVLine:
					if r.Y1, err = u("y1"); err != nil {
						return nil, err
					}
					h, err := u("height")
					if err != nil {
						return nil, err
					}
					r.X2, r.Y2 = r.X1, r.Y1+h
				case shapeHLine:
					w, err := u("width")
					if err != nil {
						return nil, err
					}
					if r.Y1, err = u("y"); err != nil {
						return nil, err
					}
					r.X2, r.Y2 = r.X1+w, r.Y1
				default:
					w, err := u("width")
					if err != nil {
						return nil, err
					}
					if r.Y1, err = u("y1"); err != nil {
						return nil, err
					}
					h, err := u("height")
					if err != nil {
						return nil, err
					}
					r.X2, r.Y2 = r.X1+w, r.Y1+h
				}
				// Both sides must stay inside the timestamp axis: buildColumns
				// places an entry in column a for every a in [X1,X2] as well
				// as [Y1,Y2]. The canonical order (X1 ≤ X2 < Y1 ≤ Y2) narrows X2
				// further, but X2 is checked explicitly so a corrupted hline or
				// rect fails here with an error instead of a panic downstream.
				if r.X2 >= fc.numGroups || r.Y2 >= fc.numGroups ||
					!(r.X1 <= r.X2 && r.X2 < r.Y1 && r.Y1 <= r.Y2) {
					return nil, fmt.Errorf("pestrie: malformed rectangle <%d,%d,%d,%d>", r.X1, r.X2, r.Y1, r.Y2)
				}
				entries += int64(r.X2-r.X1+1) + int64(r.Y2-r.Y1+1)
				if entries > math.MaxInt32 {
					return nil, fmt.Errorf("pestrie: rectangles span more than %d column entries", math.MaxInt32)
				}
				fc.rects = append(fc.rects, r)
			}
		}
	}
	return fc, nil
}
