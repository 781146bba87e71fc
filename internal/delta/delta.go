// Package delta adds incremental, versioned updates on top of the
// persistent indexes of §4. The paper persists pointer information once and
// serves it read-only; PIP-style clients (PAPERS.md) need facts for
// incomplete, *evolving* programs, where any change would otherwise force a
// full re-encode. Following the timestamped version-link design of the
// flock persistent_ptr snippets (time_stamp + next_version chains,
// read_snapshot at a stamp), this package layers an ordered chain of delta
// segments over a base .pes/PES2 file:
//
//   - A Segment (.pesd on disk, see FORMATS.md) records points-to facts
//     added and removed since its parent generation, under a monotonically
//     increasing generation stamp. Alias-fact deltas are implied: alias(p,q)
//     holds at a generation iff the points-to sets at that generation
//     intersect, so persisting the points-to edits is enough.
//   - A Snapshot is an immutable base plus one copy-on-write overlay: the
//     facts at one generation. New and Open build the head of a chain,
//     OpenAt an older generation, and Extend the next snapshot over the
//     same base. Snapshots answer the Table-1 queries through the same
//     interface as core.Index; every answer is pinned to the snapshot's
//     stamp, and concurrent readers of older snapshots never observe newer
//     edits. Each snapshot holds one reference on the shared base and no
//     older generation, so internal/store keeps exactly the snapshots it
//     serves or a reader pins.
//   - Compact (compact.go) folds base + chain back into a fresh base that
//     is byte-identical to a from-scratch rebuild at that generation.
package delta

import (
	"fmt"

	"pestrie/internal/matrix"
)

// Index is the query surface shared by core.Index and Snapshot — the four
// Table-1 queries, the membership test dual, and the dimension/metadata
// accessors the store and server consume. List answers are duplicate-free
// and in unspecified order; ListAliases excludes the queried pointer. Each
// Append form appends the bytes json.Marshal writes for its List answer,
// null and [] included.
type Index interface {
	Pointers() int
	Objects() int
	Groups() int
	Rectangles() int
	IsAlias(p, q int) bool
	ListAliases(p int) []int
	ListPointsTo(p int) []int
	ListPointedBy(o int) []int
	AppendAliases(b []byte, p int) []byte
	AppendPointsTo(b []byte, p int) []byte
	AppendPointedBy(b []byte, o int) []byte
	PointsTo(p, o int) bool
	MemoryFootprint() int64
	Mapped() bool
}

// Run is the edit set of one pointer within a segment: the object IDs it
// newly points to and the ones it no longer points to. Both lists are
// strictly ascending and disjoint, and at least one is non-empty.
type Run struct {
	Ptr int32
	Add []int32
	Del []int32
}

// Segment is one delta generation: the points-to edits that advance the
// facts from generation Parent to generation Gen. Runs are strictly
// ascending by pointer. Dimensions are the pointer/object universe *after*
// applying the segment; they only ever grow along a chain (new program
// elements get fresh IDs, existing IDs stay stable per §6.2).
type Segment struct {
	Gen         uint64 // stamp of this generation; > Parent, >= 1
	Parent      uint64 // stamp this segment applies on top of (base generation for the first link)
	BaseHint    uint64 // first 8 bytes (LE) of the base file's SHA-256; 0 = unchecked
	NumPointers int
	NumObjects  int
	Runs        []Run
}

// Counts returns the total added and removed facts in the segment.
func (s *Segment) Counts() (adds, dels int) {
	for _, r := range s.Runs {
		adds += len(r.Add)
		dels += len(r.Del)
	}
	return adds, dels
}

// validate checks every structural invariant the decoder also enforces, so
// hand-built segments fail fast instead of producing undecodable files.
func (s *Segment) validate() error {
	if s.Gen == 0 || s.Gen <= s.Parent {
		return fmt.Errorf("pesd: generation %d not after parent %d", s.Gen, s.Parent)
	}
	if s.NumPointers < 0 || s.NumObjects < 0 {
		return fmt.Errorf("pesd: negative dimensions")
	}
	prevPtr := int32(-1)
	for _, r := range s.Runs {
		if r.Ptr <= prevPtr {
			return fmt.Errorf("pesd: run pointers not strictly ascending at %d", r.Ptr)
		}
		prevPtr = r.Ptr
		if int(r.Ptr) >= s.NumPointers {
			return fmt.Errorf("pesd: pointer %d out of range [0,%d)", r.Ptr, s.NumPointers)
		}
		if len(r.Add)+len(r.Del) == 0 {
			return fmt.Errorf("pesd: empty run for pointer %d", r.Ptr)
		}
		if err := checkObjs(r.Add, s.NumObjects); err != nil {
			return fmt.Errorf("pesd: pointer %d adds: %w", r.Ptr, err)
		}
		if err := checkObjs(r.Del, s.NumObjects); err != nil {
			return fmt.Errorf("pesd: pointer %d dels: %w", r.Ptr, err)
		}
		// Add and Del are each sorted; a linear merge detects overlap.
		for i, j := 0, 0; i < len(r.Add) && j < len(r.Del); {
			switch {
			case r.Add[i] < r.Del[j]:
				i++
			case r.Add[i] > r.Del[j]:
				j++
			default:
				return fmt.Errorf("pesd: pointer %d both adds and removes object %d", r.Ptr, r.Add[i])
			}
		}
	}
	return nil
}

func checkObjs(objs []int32, numObjects int) error {
	prev := int32(-1)
	for _, o := range objs {
		if o <= prev {
			return fmt.Errorf("objects not strictly ascending at %d", o)
		}
		if int(o) >= numObjects {
			return fmt.Errorf("object %d out of range [0,%d)", o, numObjects)
		}
		prev = o
	}
	return nil
}

// Diff computes the segment that edits `from` into `to`. Dimensions may
// only grow. The caller stamps Gen/Parent/BaseHint; Diff fills dimensions
// and runs. A nil result with nil error means the matrices are equal.
func Diff(from, to *matrix.PointsTo) (*Segment, error) {
	if to.NumPointers < from.NumPointers || to.NumObjects < from.NumObjects {
		return nil, fmt.Errorf("pesd: diff would shrink %d×%d to %d×%d",
			from.NumPointers, from.NumObjects, to.NumPointers, to.NumObjects)
	}
	s := &Segment{NumPointers: to.NumPointers, NumObjects: to.NumObjects}
	for p := 0; p < to.NumPointers; p++ {
		fromRow := from.Row(p) // empty for p >= from.NumPointers
		toRow := to.Row(p)
		if fromRow.Equal(toRow) {
			continue
		}
		r := Run{Ptr: int32(p)}
		// Members are ascending, so a two-pointer merge yields Add and Del
		// already in canonical order.
		fm, tm := fromRow.Members(), toRow.Members()
		for i, j := 0, 0; i < len(fm) || j < len(tm); {
			switch {
			case j >= len(tm) || (i < len(fm) && fm[i] < tm[j]):
				r.Del = append(r.Del, int32(fm[i]))
				i++
			case i >= len(fm) || tm[j] < fm[i]:
				r.Add = append(r.Add, int32(tm[j]))
				j++
			default:
				i++
				j++
			}
		}
		if len(r.Add)+len(r.Del) > 0 {
			s.Runs = append(s.Runs, r)
		}
	}
	if len(s.Runs) == 0 && to.NumPointers == from.NumPointers && to.NumObjects == from.NumObjects {
		return nil, nil
	}
	return s, nil
}
