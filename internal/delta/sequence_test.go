package delta_test

import (
	"slices"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/demand"
	"pestrie/internal/synth"
)

// TestSnapshotAliasSequence pins the exact ListAliases sequence a snapshot
// returns for a clean pointer, which is what the server writes on the wire:
// the base answer without the dirty pointers, in base order, then every
// dirty pointer that aliases p at this generation, ascending, and never
// null. The rule is spelled out with Base, DirtyPointers and IsAlias and
// checked for every clean pointer at every overlay generation of an
// 8-segment growing chain on all 12 presets; at the head, every pointer's
// answer must also equal a demand oracle's as a set.
func TestSnapshotAliasSequence(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ix, segs, oracles := stream(t, &p, int64(i)+301, 8, true)
			v, err := delta.NewVersioned(ix, segs...)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			base := v.Base()
			for g := 1; g < len(oracles); g++ {
				sn := v.At(uint64(g))
				dirty := sn.DirtyPointers()
				isDirty := make(map[int]bool, len(dirty))
				for _, q := range dirty {
					isDirty[q] = true
				}
				for p := 0; p < sn.Pointers(); p++ {
					if isDirty[p] {
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
			}
			head := v.Head()
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

// BenchmarkSnapshotListAliases times ListAliases on clean pointers at the
// base and at the head of an 8-segment growing chain (32 edits a segment)
// over fop at scale 0.02, about 23k pointers: the gap between the two is
// what the overlay adds to a clean-pointer query. ids/op is the mean
// answer length; synth's alias sets are dense, about 20k IDs here, so the
// one filtering pass over the base answer is most of that gap.
func BenchmarkSnapshotListAliases(b *testing.B) {
	pm := synth.PresetByName("fop").Generate(0.02)
	ix := core.Build(pm, nil).Index()
	es := synth.NewEditStream(pm, synth.EditConfig{Seed: 1, EditsPerStep: 32, AddFrac: 0.7, GrowEvery: 2})
	var segs []*delta.Segment
	for i := 0; i < 8; i++ {
		segs = append(segs, es.Next())
	}
	v, err := delta.NewVersioned(ix, segs...)
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	head := v.Head()
	dirty := head.DirtyPointers()
	var clean []int
	for p := 0; p < head.Pointers(); p++ {
		if _, found := slices.BinarySearch(dirty, p); !found && len(v.Base().ListAliases(p)) > 0 {
			clean = append(clean, p)
		}
	}
	for _, c := range []struct {
		name string
		sn   *delta.Snapshot
	}{{"base", v.Base()}, {"head", head}} {
		b.Run(c.name, func(b *testing.B) {
			ids := 0
			for i := 0; i < b.N; i++ {
				ids += len(c.sn.ListAliases(clean[i%len(clean)]))
			}
			b.ReportMetric(float64(ids)/float64(b.N), "ids/op")
		})
	}
}
