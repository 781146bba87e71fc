package anders

import (
	"bytes"
	"testing"

	"pestrie/internal/bitset"
)

// TestSubstrateInvariance pins the tentpole guarantee of the bit-set
// refactor: solving on the flat substrate and on the linked paper baseline
// produces identical matrices, name tables, and persisted bytes, for
// serial and parallel solves.
func TestSubstrateInvariance(t *testing.T) {
	defer bitset.Use(bitset.FlatSubstrate)
	for _, name := range []string{"anders-base", "anders-chain", "anders-web"} {
		prog := presetProgram(t, name)
		for _, o := range []Options{{}, {Workers: 4}} {
			bitset.Use(bitset.FlatSubstrate)
			flat := mustAnalyze(t, prog, o)
			bitset.Use(bitset.LinkedSubstrate)
			linked := mustAnalyze(t, prog, o)
			bitset.Use(bitset.FlatSubstrate)
			requireSameResult(t, flat, linked, name+" flat-vs-linked")

			var fb, lb bytes.Buffer
			if _, err := flat.PM.WriteTo(&fb); err != nil {
				t.Fatal(err)
			}
			if _, err := linked.PM.WriteTo(&lb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb.Bytes(), lb.Bytes()) {
				t.Fatalf("%s: persisted .ptm bytes differ between substrates", name)
			}
		}
	}
}
