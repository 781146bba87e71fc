package anders

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pestrie/internal/ir"
)

// solveDigests pins the sha256 of what a solve persists for every program
// preset: the .ptm bytes of Result.PM.WriteTo, and the pointer and object
// name tables (one name per line). Andersen's least fixpoint is unique and
// rows are ordered by name, so a change to the solver's reductions,
// scheduling or sorting must leave these unchanged; a deliberate output
// change has to say so by editing them.
var solveDigests = []struct {
	preset     string
	cloneDepth int
	ptm        string
	pointers   string
	objects    string
}{
	{"anders-base", 0,
		"d83edda2e9a368a621b3968c903a227db873e0e85f4cc01ae8ad5937419d1a1c",
		"92d231132c9c578b89d1057e91e9e763679cea77ef3982a16e3e9e6f227fac56",
		"5056f5775f73e3f414832fe2cf1fceffaf3ad4c6faeedbdd6b9a3ee75762803d"},
	{"anders-chain", 0,
		"eb3a8d32da71d199e02878351746e6baf1d4181d5e9849d58c568b96852bd676",
		"ef5f6480c6912a3da57b0ae59d54eb2b9d05aa5153fc34fabb1006d3c53771c5",
		"7d92949ac47866981babdfb5e5636cec9b72eda71c90b4ae38c10daecb0dbccb"},
	{"anders-web", 0,
		"800e8bccb514a478c1a47909b36a9ab1be3bcf6ce703dd3d75d9cbcdb1a04793",
		"b4514af175bd80036472254493305eb6f5d709e92b0063108569684bb12409dc",
		"440a8c9161f7f346f2e95a59b38cd99ddcdf7895ac79f9abc98e1dafe4448958"},
	{"anders-large", 0,
		"b40ddac10a23bca66ef9611700ff45c39df4765ad25e19f65014c3c993f36157",
		"e04eb6cc7f238e60ed48a5ce6f1bf4ec746df7834b082800f4ee7a7612881a07",
		"993db4947f3750dc2ac0a9cd673f5ee957780c88bc86b47c3891f8b292fad04e"},
	{"anders-base", 1,
		"4f9417db311e842b3757677459241fe5f79bec826821164bc858c9ea27b7b47d",
		"61e4d6415fb810b9dcb1ee3bd5beea854bd975caaa8c14669931ea77e24c140c",
		"35a21ef0a201ce0c9c8b2a69f9f4c01201fff82d81ec2fae31bb2d7fc321a7d1"},
}

func TestSolveDigests(t *testing.T) {
	pinned := map[string]bool{}
	for _, want := range solveDigests {
		if want.cloneDepth == 0 {
			pinned[want.preset] = true
		}
	}
	for _, p := range ir.ProgPresets {
		if !pinned[p.Name] {
			t.Errorf("preset %s has no pinned digest", p.Name)
		}
	}
	for _, want := range solveDigests {
		prog := presetProgram(t, want.preset)
		res := mustAnalyze(t, prog, Options{CloneDepth: want.cloneDepth})
		h := sha256.New()
		if _, err := res.PM.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what, got, want string
		}{
			{"ptm", hex.EncodeToString(h.Sum(nil)), want.ptm},
			{"pointer names", namesDigest(res.PointerNames), want.pointers},
			{"object names", namesDigest(res.ObjectNames), want.objects},
		} {
			if c.got != c.want {
				t.Errorf("%s clone=%d %s: sha256 %s, want %s",
					want.preset, want.cloneDepth, c.what, c.got, c.want)
			}
		}
	}
}

// namesDigest returns the hex sha256 of names, one per line.
func namesDigest(names []string) string {
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
