package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pestrie/internal/bitmap"
)

// sparseModel mirrors pm's rows into bitmap.Sparse, the linked bitmap the
// BitP and demand baselines keep, as an independent reference.
func sparseModel(pm *PointsTo) []*bitmap.Sparse {
	rows := make([]*bitmap.Sparse, pm.NumPointers)
	for p := range rows {
		rows[p] = bitmap.FromSlice(pm.Row(p).Members())
	}
	return rows
}

// modelClasses numbers rows by first occurrence of their content.
func modelClasses(rows []*bitmap.Sparse) []int {
	classOf := make([]int, len(rows))
	ids := map[string]int{}
	for i, r := range rows {
		key := fmt.Sprint(r.Members())
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		classOf[i] = id
	}
	return classOf
}

func sameRows(t *testing.T, what string, got *PointsTo, want []*bitmap.Sparse) {
	t.Helper()
	if got.NumPointers != len(want) {
		t.Fatalf("%s: %d rows, model has %d", what, got.NumPointers, len(want))
	}
	for i, w := range want {
		if !slices.Equal(got.Row(i).Members(), w.Members()) {
			t.Fatalf("%s: row %d = %v, model has %v", what, i, got.Row(i).Members(), w.Members())
		}
	}
}

// TestSparseModel holds every derived structure — persisted bytes,
// transpose, equivalence classes, hub degrees, alias matrix — to the same
// structure computed over a bitmap.Sparse model of the matrix, including
// PTM1 files framed from the model's rows.
func TestSparseModel(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const np, no = 300, 120
		pm := randomPM(rng, np, no, np*8)
		model := sparseModel(pm)

		var got, want bytes.Buffer
		if _, err := pm.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteRows(&want, model, no); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("PTM1 bytes differ from the model's")
		}
		back, cols, err := ReadRows(bytes.NewReader(want.Bytes()), bitmap.ReadSparse)
		if err != nil || cols != no {
			t.Fatalf("reading the model's PTM1: %d columns, %v", cols, err)
		}
		sameRows(t, "model round trip", pm, back)

		modelT := bitmap.Transpose(model, no)
		pmt := pm.Transpose()
		sameRows(t, "transpose", pmt, modelT)

		if classOf, n := pm.EquivalenceClasses(); !slices.Equal(classOf, modelClasses(model)) || n != slices.Max(classOf)+1 {
			t.Fatal("pointer classes diverge from the model")
		}
		if classOf, _ := pm.ObjectEquivalenceClasses(); !slices.Equal(classOf, modelClasses(modelT)) {
			t.Fatal("object classes diverge from the model")
		}

		deg := pm.HubDegrees(pmt)
		for o, col := range modelT {
			var sum float64
			col.ForEach(func(p int) bool {
				s := float64(model[p].Count())
				sum += s * s
				return true
			})
			if deg[o] != math.Sqrt(sum) {
				t.Fatalf("hub degree of object %d = %g, model has %g", o, deg[o], math.Sqrt(sum))
			}
		}

		modelAM := make([]*bitmap.Sparse, np)
		for p, r := range model {
			modelAM[p] = bitmap.New()
			r.ForEach(func(o int) bool {
				modelAM[p].Or(modelT[o])
				return true
			})
		}
		sameRows(t, "alias matrix", pm.AliasMatrix(), modelAM)
	}
}
