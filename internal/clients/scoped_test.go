package clients

import (
	"math/rand"
	"reflect"
	"testing"

	"pestrie/internal/anders"
	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/ir"
)

// editedResult analyzes a generated program, flips n facts of its points-to
// matrix, and returns the snapshots of the base generation (pre-edit) and,
// one Extend later, of the head (post-edit) alongside the program and
// solver result.
func editedResult(t *testing.T, seed int64, n int) (*ir.Program, *anders.Result, *delta.Snapshot, *delta.Snapshot) {
	t.Helper()
	prog := ir.Generate(ir.GenOptions{Funcs: 10, VarsPerFunc: 6, StmtsPerFunc: 24, Seed: seed})
	res, err := anders.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Build(res.PM, nil).Index()
	edited := res.PM.Clone()
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < n; i++ {
		p, o := rng.Intn(edited.NumPointers), rng.Intn(edited.NumObjects)
		if edited.Has(p, o) {
			edited.Remove(p, o)
		} else {
			edited.Add(p, o)
		}
	}
	seg, err := delta.Diff(res.PM, edited)
	if err != nil {
		t.Fatal(err)
	}
	var segs []*delta.Segment
	if seg != nil {
		seg.Gen = 1
		segs = append(segs, seg)
	}
	v, err := delta.New(base)
	if err != nil {
		t.Fatal(err)
	}
	head, err := v.Extend(segs...)
	if err != nil {
		t.Fatal(err)
	}
	// The scoped run queries the head through the edited matrix too; keep
	// res.PM at the base so CollectAccesses and PointerID stay pre-edit
	// (the IR did not change, only the persisted facts did).
	return prog, res, v, head
}

// TestScopedMatchesFull is the union property behind ptalint -incremental:
// a previous full run at the base generation, merged with a scoped run at
// the head, must equal a full run at the head — finding for finding — for
// every check subset.
func TestScopedMatchesFull(t *testing.T) {
	subsets := [][]string{
		CheckNames,
		{"race", "nullderef", "uaf"},
		{"race"},
		{"leak", "taint"},
	}
	for seed := int64(1); seed <= 6; seed++ {
		prog, res, v, head := editedResult(t, seed, 30)
		affected := head.AffectedPointers()
		for _, checks := range subsets {
			full, err := Run(prog, res, head, checks, "main")
			if err != nil {
				t.Fatal(err)
			}
			prev, err := Run(prog, res, v, checks, "main")
			if err != nil {
				t.Fatal(err)
			}
			sc, err := RunScoped(prog, res, head, checks, "main", affected)
			if err != nil {
				t.Fatal(err)
			}
			merged := sc.Merge(prev)
			if len(merged) == 0 {
				merged = nil
			}
			if len(full) == 0 {
				full = nil
			}
			if !reflect.DeepEqual(merged, full) {
				t.Errorf("seed %d checks %v: merged scoped run diverges from full head run\nmerged: %v\nfull:   %v\ndirty:  %v",
					seed, checks, merged, full, sc.Dirty)
			}
		}
		head.Close()
		v.Close()
	}
}

// TestScopedNoEdit: with nothing affected, the scoped run re-checks no
// function, and merging leaves a base listing untouched for the per-function
// checks.
func TestScopedNoEdit(t *testing.T) {
	prog := ir.Generate(ir.GenOptions{Funcs: 6, VarsPerFunc: 5, StmtsPerFunc: 18, Seed: 42})
	res, err := anders.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := core.Build(res.PM, nil).Index()
	checks := []string{"race", "nullderef", "uaf"}
	prev, err := Run(prog, res, idx, checks, "main")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := RunScoped(prog, res, idx, checks, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Dirty) != 0 || len(sc.Findings) != 0 {
		t.Fatalf("no-edit scoped run found work: dirty=%v findings=%v", sc.Dirty, sc.Findings)
	}
	if got := sc.Merge(prev); !reflect.DeepEqual(got, prev) {
		t.Fatalf("no-edit merge changed the listing:\ngot  %v\nwant %v", got, prev)
	}
}

// TestDirtyFuncs pins the ownership rule: a function is dirty exactly when
// one of its named pointers is affected.
func TestDirtyFuncs(t *testing.T) {
	prog := ir.Generate(ir.GenOptions{Funcs: 5, VarsPerFunc: 5, StmtsPerFunc: 15, Seed: 3})
	res, err := anders.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := DirtyFuncs(prog, res, nil); len(got) != 0 {
		t.Fatalf("DirtyFuncs(nil) = %v", got)
	}
	// Affect one pointer of f0 by name.
	f := prog.Funcs[0]
	var id int
	found := false
	ir.Walk(f.Body, func(st *ir.Stmt) {
		if found || st.Dst == "" {
			return
		}
		if pid := res.PointerID(f.Name + "." + st.Dst); pid >= 0 {
			id, found = pid, true
		}
	})
	if !found {
		t.Skip("generated function has no named pointer")
	}
	got := DirtyFuncs(prog, res, []int{id})
	if len(got) == 0 {
		t.Fatalf("owner of pointer %d not dirty", id)
	}
	owner := false
	for _, name := range got {
		if name == f.Name {
			owner = true
		}
	}
	if !owner {
		t.Fatalf("DirtyFuncs(%d) = %v, missing %s", id, got, f.Name)
	}
}
