package exper

import (
	"bytes"
	"sort"
	"testing"

	"pestrie/internal/bitenc"
	"pestrie/internal/core"
	"pestrie/internal/demand"
	"pestrie/internal/synth"
)

// backend is one query implementation under differential test.
type backend struct {
	name string
	q    interface {
		IsAlias(p, q int) bool
		ListAliases(p int) []int
		ListPointsTo(p int) []int
		ListPointedBy(o int) []int
	}
}

// asSet sorts a copy of the answer and fails the test if the original had
// duplicates — every backend must answer with a duplicate-free set.
func asSet(t *testing.T, preset, backend, query string, id int, xs []int) []int {
	t.Helper()
	out := append([]int(nil), xs...)
	sort.Ints(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("%s/%s: %s(%d) contains duplicate %d", preset, backend, query, id, out[i])
		}
	}
	return out
}

func equalInts(a, b []int) bool {
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

// TestDifferentialBackends cross-checks all four Table-1 queries, as sets
// and with no duplicates, across every query backend on every synth
// preset: the Pestrie index with pruning on and off, built in memory and
// round-tripped through the persisted file and the decoder, the BitP
// encoding, and the demand-driven oracle.
func TestDifferentialBackends(t *testing.T) {
	const scale = 0.002
	for _, preset := range synth.Presets {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			t.Parallel()
			pm := preset.Generate(scale)

			// The roundtrip variant exercises the full persistence
			// pipeline: build, encode, decode.
			trie := core.Build(pm, nil)
			var buf bytes.Buffer
			if _, err := trie.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := core.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			backends := []backend{
				{"pes", trie.Index()},
				{"pes-roundtrip", decoded},
				{"pes-noprune", core.Build(pm, &core.Options{DisablePruning: true}).Index()},
				{"bitenc", bitenc.Encode(pm)},
				{"demand", demand.New(pm)},
			}
			ref := backends[0]

			// Subsample pointers/objects so all 12 presets stay fast; the
			// stride keeps coverage spread across the ID space.
			base := synth.BasePointers(pm, 1+pm.NumPointers/120)
			if len(base) == 0 {
				t.Fatalf("no base pointers at scale %v", scale)
			}
			objStride := 1 + pm.NumObjects/120

			for _, p := range base {
				wantAliases := asSet(t, preset.Name, ref.name, "ListAliases", p, ref.q.ListAliases(p))
				wantPointsTo := asSet(t, preset.Name, ref.name, "ListPointsTo", p, ref.q.ListPointsTo(p))
				for _, b := range backends[1:] {
					if got := asSet(t, preset.Name, b.name, "ListAliases", p, b.q.ListAliases(p)); !equalInts(got, wantAliases) {
						t.Fatalf("%s: ListAliases(%d) disagrees: %s=%v %s=%v",
							preset.Name, p, ref.name, wantAliases, b.name, got)
					}
					if got := asSet(t, preset.Name, b.name, "ListPointsTo", p, b.q.ListPointsTo(p)); !equalInts(got, wantPointsTo) {
						t.Fatalf("%s: ListPointsTo(%d) disagrees: %s=%v %s=%v",
							preset.Name, p, ref.name, wantPointsTo, b.name, got)
					}
				}
				for _, q := range base {
					want := ref.q.IsAlias(p, q)
					for _, b := range backends[1:] {
						if got := b.q.IsAlias(p, q); got != want {
							t.Fatalf("%s: IsAlias(%d,%d): %s=%v %s=%v",
								preset.Name, p, q, ref.name, want, b.name, got)
						}
					}
				}
			}
			for o := 0; o < pm.NumObjects; o += objStride {
				want := asSet(t, preset.Name, ref.name, "ListPointedBy", o, ref.q.ListPointedBy(o))
				for _, b := range backends[1:] {
					if got := asSet(t, preset.Name, b.name, "ListPointedBy", o, b.q.ListPointedBy(o)); !equalInts(got, want) {
						t.Fatalf("%s: ListPointedBy(%d) disagrees: %s=%v %s=%v",
							preset.Name, o, ref.name, want, b.name, got)
					}
				}
			}
		})
	}
}
