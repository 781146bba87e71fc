// Package bitset provides the bit-set substrate behind every non-baseline
// set of integers in this repository: points-to matrix rows, Andersen
// wave-propagation sets, flow-analysis states, and the bitenc query path.
//
// Two implementations back a common Set interface:
//
//   - Flat: a cache-friendly hybrid. Small or genuinely sparse sets live in
//     a sorted member array; once a set is dense enough, it promotes to a
//     flat []uint64 word array so unions and intersections become straight
//     word loops with no pointer chasing.
//   - Linked: a thin wrapper over internal/bitmap's GCC-style linked
//     128-bit blocks — the faithful paper baseline (§7). It exists so every
//     measurement can still be run on the exact structure the paper
//     describes, via the -bitsubstrate=linked flag.
//
// Both implementations hash identically (the per-block FNV-1a scheme of
// bitmap.Sparse.Hash) and serialize identically (the delta-varint row
// format of bitmap's io.go), so switching substrates never changes
// persisted bytes, equivalence classes, or demand-cache behavior.
package bitset

import (
	"flag"
	"fmt"
	"sync/atomic"
)

// Set is the common interface over the flat and linked substrates. All
// binary operations accept any Set; same-substrate operands take fast
// paths, mixed operands fall back to generic member iteration.
//
// Members are non-negative and must be below 1<<32. Sets are not safe for
// concurrent mutation; concurrent reads of distinct sets are fine.
type Set interface {
	// Set inserts bit i. It panics if i is negative.
	Set(i int)
	// Clear removes bit i. Clearing an absent bit is a no-op.
	Clear(i int)
	// Test reports whether bit i is a member.
	Test(i int) bool
	// Empty reports whether the set has no members.
	Empty() bool
	// Count returns the number of members.
	Count() int
	// Copy returns an independent copy of the set (same substrate).
	Copy() Set
	// Or unions other into the receiver.
	Or(other Set)
	// OrChanged unions other into the receiver and reports whether any
	// bit was added — the wave-propagation primitive.
	OrChanged(other Set) bool
	// And intersects the receiver with other in place.
	And(other Set)
	// AndNot removes every member of other from the receiver.
	AndNot(other Set)
	// Intersects reports whether the receiver and other share a member,
	// without materialising the intersection.
	Intersects(other Set) bool
	// Equal reports whether the receiver and other have the same members.
	Equal(other Set) bool
	// ForEach calls fn for every member in increasing order, stopping
	// early if fn returns false.
	ForEach(fn func(i int) bool)
	// Members returns all members in increasing order.
	Members() []int
	// Min returns the smallest member, or -1 if the set is empty.
	Min() int
	// Max returns the largest member, or -1 if the set is empty.
	Max() int
	// Hash returns the FNV-1a block hash of the contents. Both substrates
	// produce identical hashes for identical contents.
	Hash() uint64
	// Bytes returns the approximate in-memory footprint of the set.
	Bytes() int64
}

// Substrate selects which Set implementation New constructs.
type Substrate uint32

const (
	// FlatSubstrate is the cache-friendly hybrid (default).
	FlatSubstrate Substrate = iota
	// LinkedSubstrate is the GCC-style linked-block paper baseline.
	LinkedSubstrate
)

func (s Substrate) String() string {
	if s == LinkedSubstrate {
		return "linked"
	}
	return "flat"
}

// ParseSubstrate parses a -bitsubstrate flag value.
func ParseSubstrate(name string) (Substrate, error) {
	switch name {
	case "flat":
		return FlatSubstrate, nil
	case "linked":
		return LinkedSubstrate, nil
	}
	return FlatSubstrate, fmt.Errorf("bitset: unknown substrate %q (want flat or linked)", name)
}

var defaultSubstrate atomic.Uint32

// Default returns the process-wide substrate New constructs.
func Default() Substrate { return Substrate(defaultSubstrate.Load()) }

// Use switches the process-wide default substrate. Sets already
// constructed keep their substrate; mixed-substrate operations remain
// correct (they fall back to generic iteration).
func Use(s Substrate) { defaultSubstrate.Store(uint32(s)) }

// New returns an empty set of the default substrate.
func New() Set {
	if Default() == LinkedSubstrate {
		return NewLinked()
	}
	return NewFlat()
}

// FromSlice builds a set of the default substrate containing members.
func FromSlice(members []int) Set {
	s := New()
	for _, m := range members {
		s.Set(m)
	}
	return s
}

// Flag registers the -bitsubstrate flag on fs; parsing it switches the
// process-wide default substrate.
func Flag(fs *flag.FlagSet) {
	fs.Var(substrateFlag{}, "bitsubstrate",
		"bit-set `substrate`: flat (cache-friendly hybrid) or linked (GCC-style paper baseline)")
}

type substrateFlag struct{}

func (substrateFlag) String() string { return Default().String() }

func (substrateFlag) Set(v string) error {
	s, err := ParseSubstrate(v)
	if err != nil {
		return err
	}
	Use(s)
	return nil
}
