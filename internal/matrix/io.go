package matrix

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pestrie/internal/bitset"
	"pestrie/internal/safeio"
)

// Matrix file format ("PTM1"): the raw exported points-to information a
// points-to analysis hands to the persistence layer. This plays the role of
// the normalized matrix of §2 and §6 and is the input to every encoder
// (Pestrie, bitmap, BDD, bzip).
//
//	magic "PTM1"
//	uvarint numPointers
//	uvarint numObjects
//	numPointers × delta-varint set rows (see bitset.Set.AppendTo /
//	bitmap.Sparse.AppendTo, which code a row identically)

const matrixMagic = "PTM1"

// maxDim bounds both declared dimensions of a PTM1 or raw matrix.
const maxDim = 1 << 28

// Row is what PTM1 framing needs of a row set. PointsTo's rows are
// *bitset.Set; the BitP baseline frames its class-level *bitmap.Sparse
// rows the same way, so the two share one framing and one set of bounds.
type Row interface {
	comparable
	// AppendTo appends the row's delta-varint coding to b.
	AppendTo(b []byte) []byte
	// Max returns the largest member, or -1 if the row is empty.
	Max() int
}

// WriteTo serializes the matrix. It returns the number of bytes written.
func (pm *PointsTo) WriteTo(w io.Writer) (int64, error) {
	return WriteRows(w, pm.rows, pm.NumObjects)
}

// WriteRows writes rows as a PTM1 matrix over numObjects columns. A nil
// row is written as the empty set. It returns the number of bytes written.
func WriteRows[R Row](w io.Writer, rows []R, numObjects int) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(matrixMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []uint64{uint64(len(rows)), uint64(numObjects)} {
		k := binary.PutUvarint(buf[:], v)
		n, err := bw.Write(buf[:k])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	// One Write per row, not per member: the row is appended into a
	// buffer reused across rows.
	var zero R
	var row []byte
	for _, r := range rows {
		if r == zero {
			row = append(row[:0], 0) // a zero member count
		} else {
			row = r.AppendTo(row[:0])
		}
		n, err := bw.Write(row)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// WriteRaw writes the matrix in the raw fixed-width export format a
// points-to analysis typically dumps (and the input the off-the-shelf
// compressor baseline consumes): for each pointer a uint32 count followed
// by the uint32 object IDs, little-endian. This is the "gigabytes of
// pointer information" representation of §1, before any clever encoding.
func (pm *PointsTo) WriteRaw(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	var buf [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:], v)
		n, err := bw.Write(buf[:])
		written += int64(n)
		return err
	}
	if err := put(uint32(pm.NumPointers)); err != nil {
		return written, err
	}
	if err := put(uint32(pm.NumObjects)); err != nil {
		return written, err
	}
	for p := 0; p < pm.NumPointers; p++ {
		row := pm.Row(p)
		if err := put(uint32(row.Count())); err != nil {
			return written, err
		}
		var ferr error
		row.ForEach(func(o int) bool {
			ferr = put(uint32(o))
			return ferr == nil
		})
		if ferr != nil {
			return written, ferr
		}
	}
	return written, bw.Flush()
}

// ReadRaw deserializes a matrix written by WriteRaw.
func ReadRaw(r io.Reader) (*PointsTo, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var buf [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	np, err := get()
	if err != nil {
		return nil, fmt.Errorf("matrix: raw pointer count: %w", err)
	}
	no, err := get()
	if err != nil {
		return nil, fmt.Errorf("matrix: raw object count: %w", err)
	}
	if np > maxDim || no > maxDim {
		return nil, fmt.Errorf("matrix: implausible raw dimensions %d×%d", np, no)
	}
	rows := make([]*bitset.Set, 0, safeio.Cap(int(np)))
	for p := 0; p < int(np); p++ {
		count, err := get()
		if err != nil {
			return nil, fmt.Errorf("matrix: raw row %d count: %w", p, err)
		}
		if count > no {
			return nil, fmt.Errorf("matrix: raw row %d count %d exceeds objects", p, count)
		}
		var row *bitset.Set
		for i := uint32(0); i < count; i++ {
			o, err := get()
			if err != nil {
				return nil, fmt.Errorf("matrix: raw row %d member: %w", p, err)
			}
			if o >= no {
				return nil, fmt.Errorf("matrix: raw row %d object %d out of range", p, o)
			}
			if row == nil {
				row = bitset.New()
			}
			row.Set(int(o))
		}
		rows = append(rows, row)
	}
	return &PointsTo{NumPointers: int(np), NumObjects: int(no), rows: rows}, nil
}

// Read deserializes a matrix written by WriteTo. When r is already a
// *bufio.Reader it is used directly, so several matrices can be read back to
// back from one stream without losing read-ahead bytes.
func Read(r io.Reader) (*PointsTo, error) {
	rows, numObjects, err := ReadRows(r, bitset.Read)
	if err != nil {
		return nil, err
	}
	for p, row := range rows {
		if row.Empty() {
			rows[p] = nil // an empty row costs no set
		}
	}
	return &PointsTo{NumPointers: len(rows), NumObjects: numObjects, rows: rows}, nil
}

// ReadRows reads a PTM1 matrix, decoding each row with readRow. It rejects
// dimensions above 2^28 and any member at or past the declared object
// count, and it returns the rows with that count. When r is already a
// *bufio.Reader it is used directly, as for Read.
func ReadRows[R Row](r io.Reader, readRow func(io.ByteReader) (R, error)) (rows []R, numObjects int, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, len(matrixMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("matrix: reading magic: %w", err)
	}
	if string(magic) != matrixMagic {
		return nil, 0, fmt.Errorf("matrix: bad magic %q", magic)
	}
	np, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("matrix: reading pointer count: %w", err)
	}
	no, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("matrix: reading object count: %w", err)
	}
	if np > maxDim || no > maxDim {
		return nil, 0, fmt.Errorf("matrix: implausible dimensions %d×%d", np, no)
	}
	// Rows are appended as they decode rather than preallocated from the
	// untrusted header count: every row costs at least one input byte, so
	// allocation stays proportional to the actual file size.
	rows = make([]R, 0, safeio.Cap(int(np)))
	for p := 0; p < int(np); p++ {
		row, err := readRow(br)
		if err != nil {
			return nil, 0, fmt.Errorf("matrix: row %d: %w", p, err)
		}
		if max := row.Max(); max >= int(no) {
			return nil, 0, fmt.Errorf("matrix: row %d: object %d out of range [0,%d)", p, max, no)
		}
		rows = append(rows, row)
	}
	return rows, int(no), nil
}
