package exper

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/synth"
)

// TestCrossVersionV1V2 is the release gate for the zero-copy format: on
// every synth preset, the same trie is persisted as PES1 (decoded onto the
// heap) and as PES2 (memory-mapped from a real file), and the two indexes
// must give identical answers to all four Table-1 queries over a strided
// sweep of the full pointer and object ID space — including the
// out-of-range IDs -1 and N, which both formats must reject identically.
func TestCrossVersionV1V2(t *testing.T) {
	const scale = 0.002
	for _, preset := range synth.Presets {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			t.Parallel()
			pm := preset.Generate(scale)
			trie := core.Build(pm, nil)

			var v1 bytes.Buffer
			if _, err := trie.WriteTo(&v1); err != nil {
				t.Fatal(err)
			}
			decoded, err := core.Load(bytes.NewReader(v1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), preset.Name+".pes")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decoded.WriteToV2(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			mapped, err := core.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if !mapped.Mapped() {
				t.Fatal("PES2 open did not map the file")
			}

			if mapped.NumPointers != decoded.NumPointers || mapped.NumObjects != decoded.NumObjects ||
				mapped.NumGroups != decoded.NumGroups || mapped.Rectangles() != decoded.Rectangles() {
				t.Fatalf("dimensions diverged: mapped %d×%d (%d groups, %d rects), decoded %d×%d (%d groups, %d rects)",
					mapped.NumPointers, mapped.NumObjects, mapped.NumGroups, mapped.Rectangles(),
					decoded.NumPointers, decoded.NumObjects, decoded.NumGroups, decoded.Rectangles())
			}

			pStride := 1 + pm.NumPointers/150
			oStride := 1 + pm.NumObjects/150
			for p := -1; p <= pm.NumPointers; p += pStride {
				if got, want := asSet(t, preset.Name, "pes2", "ListAliases", p, mapped.ListAliases(p)),
					asSet(t, preset.Name, "pes1", "ListAliases", p, decoded.ListAliases(p)); !equalInts(got, want) {
					t.Fatalf("ListAliases(%d): pes2=%v pes1=%v", p, got, want)
				}
				if got, want := asSet(t, preset.Name, "pes2", "ListPointsTo", p, mapped.ListPointsTo(p)),
					asSet(t, preset.Name, "pes1", "ListPointsTo", p, decoded.ListPointsTo(p)); !equalInts(got, want) {
					t.Fatalf("ListPointsTo(%d): pes2=%v pes1=%v", p, got, want)
				}
				for q := -1; q <= pm.NumPointers; q += pStride {
					if got, want := mapped.IsAlias(p, q), decoded.IsAlias(p, q); got != want {
						t.Fatalf("IsAlias(%d,%d): pes2=%v pes1=%v", p, q, got, want)
					}
				}
			}
			for o := -1; o <= pm.NumObjects; o += oStride {
				if got, want := asSet(t, preset.Name, "pes2", "ListPointedBy", o, mapped.ListPointedBy(o)),
					asSet(t, preset.Name, "pes1", "ListPointedBy", o, decoded.ListPointedBy(o)); !equalInts(got, want) {
					t.Fatalf("ListPointedBy(%d): pes2=%v pes1=%v", o, got, want)
				}
			}
		})
	}
}
