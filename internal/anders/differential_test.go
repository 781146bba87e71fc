package anders

import (
	"fmt"
	"testing"

	"pestrie/internal/ir"
)

// TestDifferentialAgainstBruteForce pits the engine against the naive
// rule-application reference solver (naiveSolve, anders_test.go) on
// randomized small programs covering every constraint kind, and demands
// *exact* set equality in both directions — not just soundness. The grid
// crosses seeds with clone depths, so the reference also checks that
// cloning leaves the fixpoint untouched.
func TestDifferentialAgainstBruteForce(t *testing.T) {
	opts := ir.GenOptions{Funcs: 4, VarsPerFunc: 4, StmtsPerFunc: 12, LoadStoreWeight: 2}
	for seed := int64(1); seed <= 40; seed++ {
		opts.Seed = seed
		prog := ir.Generate(opts)
		for _, depth := range []int{0, 1} {
			tag := fmt.Sprintf("seed=%d depth=%d", seed, depth)
			res, err := Analyze(prog, &Options{CloneDepth: depth})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			// The reference solves the same (cloned) program the engine
			// solved.
			refProg := prog
			if depth > 0 {
				refProg, err = CloneCallsites(prog, depth)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			diffExact(t, res, naiveSolve(refProg), tag)
		}
	}
}

// diffExact fails unless res and the reference map contain exactly the
// same points-to facts. Pointers absent from one side must be empty on
// the other: the reference only materializes rows that receive facts,
// and the engine only materializes heap rows for dereferenced objects.
func diffExact(t *testing.T, res *Result, naive map[string]map[string]bool, tag string) {
	t.Helper()
	for p, name := range res.PointerNames {
		res.PM.Row(p).ForEach(func(o int) bool {
			if !naive[name][res.ObjectNames[o]] {
				t.Fatalf("%s: engine has %s -> %s, reference does not", tag, name, res.ObjectNames[o])
			}
			return true
		})
	}
	for ptr, objs := range naive {
		p := res.PointerID(ptr)
		if p < 0 {
			if len(objs) > 0 {
				t.Fatalf("%s: reference has facts for %s, engine has no row", tag, ptr)
			}
			continue
		}
		for obj := range objs {
			oid := res.ObjectID(obj)
			if oid < 0 || !res.PM.Has(p, oid) {
				t.Fatalf("%s: reference has %s -> %s, engine does not", tag, ptr, obj)
			}
		}
	}
}
