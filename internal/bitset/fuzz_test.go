package bitset

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pestrie/internal/bitmap"
)

// FuzzSetOps interprets the input bytes as an op sequence over two sets and
// mirrors every mutation into bitmap.Sparse references, then cross-checks
// all observables. This is the set's differential oracle under adversarial
// op orders (the CI fuzz smoke).
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x51, 0x51, 0x51, 0x51, 0x51, 0x51, 0x25, 0x66, 0x87, 0x98})
	f.Add(bytes.Repeat([]byte{0x01, 0xFF, 0x40}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		sets := [2]*Set{New(), New()}
		refs := [2]*bitmap.Sparse{bitmap.New(), bitmap.New()}
		if len(data) > 4096 {
			data = data[:4096]
		}
		for len(data) >= 1 {
			op := data[0] & 0x0f
			which := int(data[0]>>4) & 1
			data = data[1:]
			v := 0
			if len(data) >= 2 {
				v = int(binary.LittleEndian.Uint16(data))
				data = data[2:]
			}
			x, y := which, 1-which
			switch op {
			case 0, 1, 2, 3, 4, 5:
				sets[x].Set(v)
				refs[x].Set(v)
			case 6, 7:
				sets[x].Clear(v)
				refs[x].Clear(v)
			case 8:
				sets[x].Or(sets[y])
				refs[x].Or(refs[y])
			case 9:
				sets[x].And(sets[y])
				refs[x].And(refs[y])
			case 10:
				sets[x].AndNot(sets[y])
				refs[x].AndNot(refs[y])
			case 11:
				if sets[x].OrChanged(sets[y]) != refs[x].Or(refs[y]) {
					t.Fatal("OrChanged diverges from the reference")
				}
			case 12:
				sets[x] = sets[x].Copy()
				refs[x] = refs[x].Copy()
			case 13:
				if sets[x].Test(v) != refs[x].Test(v) {
					t.Fatalf("Test(%d) diverges", v)
				}
			case 14:
				if sets[x].Intersects(sets[y]) != refs[x].Intersects(refs[y]) {
					t.Fatal("Intersects diverges")
				}
			case 15:
				if sets[x].Equal(sets[y]) != refs[x].Equal(refs[y]) {
					t.Fatal("Equal diverges")
				}
			}
		}
		for i := range sets {
			got, want := sets[i].Members(), refs[i].Members()
			if len(got) != len(want) {
				t.Fatalf("set %d: member count diverges: got %d, want %d", i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("set %d member %d: got %d, want %d", i, j, got[j], want[j])
				}
			}
			if sets[i].Hash() != refs[i].Hash() {
				t.Fatalf("set %d: hash diverges", i)
			}
			if sets[i].Count() != refs[i].Count() || sets[i].Max() != refs[i].Max() {
				t.Fatalf("set %d: count/max diverge", i)
			}
			enc := sets[i].AppendTo(nil)
			if !bytes.Equal(enc, refs[i].AppendTo(nil)) {
				t.Fatalf("set %d: wire encoding diverges from the reference", i)
			}
			back, err := Read(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(sets[i]) {
				t.Fatalf("set %d: round trip lost members", i)
			}
		}
	})
}
