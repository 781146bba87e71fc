package delta_test

import (
	"slices"
	"strconv"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/demand"
	"pestrie/internal/synth"
)

// TestSnapshotAliasSequence pins the exact list sequences a snapshot
// returns at an overlay generation, which is what the server writes on the
// wire, none of them ever null:
//   - a clean pointer's ListAliases: the base answer without the dirty
//     pointers, in base order, then every dirty pointer that aliases p at
//     this generation, ascending;
//   - a dirty pointer's ListAliases: its aliases ascending, as a demand
//     oracle over the generation's matrix lists them;
//   - every object's ListPointedBy: the base answer without the pointers
//     that no longer point to it, in base order, then the pointers that
//     newly do, ascending.
//
// The rules are spelled out with Base, DirtyPointers, IsAlias and PointsTo
// and checked at every overlay generation of an 8-segment growing chain,
// built one Extend at a time, on all 12 presets; at the head, every
// pointer's answer must also equal a demand oracle's as a set.
func TestSnapshotAliasSequence(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ix, segs, oracles := stream(t, &p, int64(i)+301, 8, true)
			head := walk(t, ix, segs, func(g int, sn *delta.Snapshot) {
				if g == 0 {
					return
				}
				base := sn.Base()
				dirty := sn.DirtyPointers()
				isDirty := make(map[int]bool, len(dirty))
				for _, q := range dirty {
					isDirty[q] = true
				}
				oracle := demand.New(oracles[g])
				for p := 0; p < sn.Pointers(); p++ {
					if isDirty[p] {
						want := sortedCopy(oracle.ListAliases(p))
						if want == nil {
							want = []int{}
						}
						if got := sn.ListAliases(p); got == nil || !slices.Equal(got, want) {
							t.Fatalf("gen %d: dirty ListAliases(%d) = %v, want %v", g, p, got, want)
						}
						continue
					}
					want := []int{}
					for _, q := range base.ListAliases(p) {
						if !isDirty[q] {
							want = append(want, q)
						}
					}
					for _, q := range dirty {
						if q != p && sn.IsAlias(p, q) {
							want = append(want, q)
						}
					}
					got := sn.ListAliases(p)
					if got == nil || !slices.Equal(got, want) {
						t.Fatalf("gen %d: ListAliases(%d) = %v, want %v", g, p, got, want)
					}
				}
				for o := 0; o < sn.Objects(); o++ {
					want := []int{}
					for _, q := range base.ListPointedBy(o) {
						if sn.PointsTo(q, o) {
							want = append(want, q)
						}
					}
					for _, q := range dirty {
						if sn.PointsTo(q, o) && !base.PointsTo(q, o) {
							want = append(want, q)
						}
					}
					if got := sn.ListPointedBy(o); got == nil || !slices.Equal(got, want) {
						t.Fatalf("gen %d: ListPointedBy(%d) = %v, want %v", g, o, got, want)
					}
				}
			})
			oracle := demand.New(oracles[len(oracles)-1])
			for p := 0; p < head.Pointers(); p++ {
				if !equalSets(head.ListAliases(p), oracle.ListAliases(p)) {
					t.Fatalf("head: ListAliases(%d) = %v, oracle %v",
						p, sortedCopy(head.ListAliases(p)), sortedCopy(oracle.ListAliases(p)))
				}
			}
		})
	}
}

var aliasSink []byte

// BenchmarkSnapshotListAliases times ListAliases at the base and at the
// head of an 8-segment growing chain (32 edits a segment) over fop at
// scale 0.02, about 23k pointers: on clean pointers, whose gap between
// the two is what the overlay adds to a clean-pointer query, and at the
// head on dirty pointers, which mark their aliases in a bitset over the
// pointer universe. head/append times AppendAliases on the clean pointers
// at the head, the bytes the server writes, against head/format,
// ListAliases plus strconv formatting. ids/op is the mean answer length;
// synth's alias sets are dense, about 20k IDs here.
func BenchmarkSnapshotListAliases(b *testing.B) {
	pm := synth.PresetByName("fop").Generate(0.02)
	ix := core.Build(pm, nil).Index()
	ix.BuildIDText()
	es := synth.NewEditStream(pm, synth.EditConfig{Seed: 1, EditsPerStep: 32, AddFrac: 0.7, GrowEvery: 2})
	var segs []*delta.Segment
	for i := 0; i < 8; i++ {
		segs = append(segs, es.Next())
	}
	var base *delta.Snapshot
	head := walk(b, ix, segs, func(g int, sn *delta.Snapshot) {
		if g == 0 {
			base = sn
		}
	})
	dirty := head.DirtyPointers()
	var clean []int
	for p := 0; p < head.Pointers(); p++ {
		if _, found := slices.BinarySearch(dirty, p); !found && len(base.ListAliases(p)) > 0 {
			clean = append(clean, p)
		}
	}
	lists := func(sn *delta.Snapshot, ptrs []int) func(b *testing.B) {
		return func(b *testing.B) {
			ids := 0
			for i := 0; i < b.N; i++ {
				ids += len(sn.ListAliases(ptrs[i%len(ptrs)]))
			}
			b.ReportMetric(float64(ids)/float64(b.N), "ids/op")
		}
	}
	b.Run("base", lists(base, clean))
	b.Run("head", lists(head, clean))
	b.Run("head/dirty", lists(head, dirty))
	b.Run("head/format", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aliasSink = aliasSink[:0]
			for _, q := range head.ListAliases(clean[i%len(clean)]) {
				aliasSink = append(strconv.AppendInt(aliasSink, int64(q), 10), ',')
			}
		}
	})
	b.Run("head/append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aliasSink = head.AppendAliases(nil, clean[i%len(clean)])
		}
	})
}
