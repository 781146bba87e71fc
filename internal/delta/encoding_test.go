package delta_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/matrix"
	"pestrie/internal/synth"
)

// checkAppend holds every Append method of ix to json.Marshal of the
// matching List answer, null and [] included, for every p and o from -1 to
// one past the end. Odd IDs append after existing bytes, which must stay.
func checkAppend(t testing.TB, what string, ix delta.Index) {
	t.Helper()
	check := func(op string, id int, appendTo func([]byte, int) []byte, list []int) {
		t.Helper()
		want, err := json.Marshal(list)
		if err != nil {
			t.Fatal(err)
		}
		var prefix []byte
		if id%2 != 0 {
			prefix = []byte(`{"ids":`)
		}
		got := appendTo(prefix, id)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: %s(%d) appends %s, json.Marshal writes %s", what, op, id, got[len(prefix):], want)
		}
	}
	for p := -1; p <= ix.Pointers(); p++ {
		check("aliases", p, ix.AppendAliases, ix.ListAliases(p))
		check("pointsto", p, ix.AppendPointsTo, ix.ListPointsTo(p))
	}
	for o := -1; o <= ix.Objects(); o++ {
		check("pointedby", o, ix.AppendPointedBy, ix.ListPointedBy(o))
	}
}

// bases builds pm's index with pruning on or off and returns it
// PES1-decoded and PES2-mapped.
func bases(t testing.TB, pm *matrix.PointsTo, pruning bool) (decoded, mapped *core.Index) {
	t.Helper()
	trie := core.Build(pm, &core.Options{DisablePruning: !pruning})
	var v1, v2 bytes.Buffer
	if _, err := trie.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	decoded, err := core.Load(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trie.Index().WriteToV2(&v2); err != nil {
		t.Fatal(err)
	}
	if mapped, err = core.LoadMapped(v2.Bytes(), nil); err != nil {
		t.Fatal(err)
	}
	return decoded, mapped
}

// checkChain checks the Append methods of every generation of segs
// applied over base, the base generation included.
func checkChain(t testing.TB, what string, base *core.Index, segs []*delta.Segment) {
	t.Helper()
	walk(t, base, segs, func(_ int, sn *delta.Snapshot) {
		checkAppend(t, fmt.Sprintf("%s gen %d", what, sn.Generation()), sn)
	})
}

// TestAppendMatchesMarshal holds the byte-range encoder to encoding/json:
// on all 12 presets, with pruning on and off, on PES1-decoded and
// PES2-mapped indexes and at every generation of an 8-segment growing
// chain, every Append method writes what json.Marshal writes for the
// matching List answer. The two formats hold the same flat arrays, so the
// chain, whose dirty pointers' answers dominate the test's time, runs over
// the mapped base with pruning on and over the decoded one with it off.
func TestAppendMatchesMarshal(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			pm := p.Generate(presetScale)
			es := synth.NewEditStream(pm, synth.EditConfig{Seed: int64(i) + 401, EditsPerStep: 32, AddFrac: 0.7, GrowEvery: 2})
			var segs []*delta.Segment
			for s := 0; s < 8; s++ {
				segs = append(segs, es.Next())
			}
			for _, pruning := range []bool{true, false} {
				decoded, mapped := bases(t, pm, pruning)
				what := fmt.Sprintf("pruning %v", pruning)
				checkAppend(t, what+" PES1", decoded)
				checkAppend(t, what+" PES2", mapped)
				if pruning {
					checkChain(t, what+" PES2", mapped, segs)
				} else {
					checkChain(t, what+" PES1", decoded, segs)
				}
			}
		})
	}
}

// FuzzListEncoding runs TestAppendMatchesMarshal's comparison over small
// matrices drawn from the fuzz input, with pruning on and off, and over a
// chain of edit segments the seed generates on top.
func FuzzListEncoding(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(1), uint8(2))
	f.Add([]byte{20, 9, 1, 0xff, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98}, int64(7), uint8(4))
	f.Add([]byte{1, 1, 0}, int64(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, steps uint8) {
		if len(data) < 3 {
			return
		}
		np, no := 1+int(data[0])%32, 1+int(data[1])%16
		pruning := data[2]&1 == 0
		pm := matrix.New(np, no)
		for _, c := range data[3:] {
			pm.Add(int(c)%np, int(c)/np%no)
		}
		es := synth.NewEditStream(pm, synth.EditConfig{Seed: seed, EditsPerStep: 1 + np/2, AddFrac: 0.6, GrowEvery: 2})
		var segs []*delta.Segment
		for s := 0; s < int(steps%6); s++ {
			segs = append(segs, es.Next())
		}
		decoded, _ := bases(t, pm, pruning)
		checkChain(t, fmt.Sprintf("pruning %v", pruning), decoded, segs)
	})
}
