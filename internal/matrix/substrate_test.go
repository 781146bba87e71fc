package matrix

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pestrie/internal/bitset"
)

// buildRandom adds the same pseudo-random fact stream to a fresh matrix
// under whatever substrate is currently selected.
func buildRandom(seed int64, pointers, objects int) *PointsTo {
	rng := rand.New(rand.NewSource(seed))
	pm := New(pointers, objects)
	for n := 0; n < pointers*8; n++ {
		pm.Add(rng.Intn(pointers), rng.Intn(objects))
	}
	return pm
}

// TestSubstrateByteIdentity pins that every derived structure — persisted
// bytes, equivalence classes, hub degrees, transpose, alias matrix — is
// identical whether rows live on the flat or the linked substrate.
func TestSubstrateByteIdentity(t *testing.T) {
	defer bitset.Use(bitset.FlatSubstrate)
	for seed := int64(0); seed < 4; seed++ {
		bitset.Use(bitset.FlatSubstrate)
		flat := buildRandom(seed, 300, 120)
		bitset.Use(bitset.LinkedSubstrate)
		linked := buildRandom(seed, 300, 120)
		bitset.Use(bitset.FlatSubstrate)

		if !flat.Equal(linked) || !linked.Equal(flat) {
			t.Fatal("same fact stream produced unequal matrices across substrates")
		}
		var fb, lb bytes.Buffer
		if _, err := flat.WriteTo(&fb); err != nil {
			t.Fatal(err)
		}
		if _, err := linked.WriteTo(&lb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb.Bytes(), lb.Bytes()) {
			t.Fatal("persisted PTM1 bytes differ between substrates")
		}

		fc, fn := flat.EquivalenceClasses()
		lc, ln := linked.EquivalenceClasses()
		if fn != ln || !slices.Equal(fc, lc) {
			t.Fatal("equivalence classes diverge across substrates")
		}
		flatT, linkedT := flat.Transpose(), linked.Transpose()
		if !flatT.Equal(linkedT) {
			t.Fatal("transposes diverge across substrates")
		}
		if !slices.Equal(flat.HubDegrees(flatT), linked.HubDegrees(linkedT)) {
			t.Fatal("hub degrees diverge across substrates")
		}
		if !flat.AliasMatrix().Equal(linked.AliasMatrix()) {
			t.Fatal("alias matrices diverge across substrates")
		}
	}
}
