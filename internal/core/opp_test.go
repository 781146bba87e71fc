package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pestrie/internal/matrix"
)

func TestPartitionSizesPaperExample(t *testing.T) {
	pm := paperPM()
	sizes := PartitionSizes(pm, paperOrder)
	// o1 takes p1..p4, o2 takes p6, o3 takes p7, o4 takes p5, o5 nothing.
	want := []int{4, 1, 1, 1, 0}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if got := OPPObjective(sizes); got != 16+1+1+1 {
		t.Fatalf("OPPObjective = %d, want 19", got)
	}
}

func TestPartitionSizesMatchGroupAssignment(t *testing.T) {
	// The partition the construction builds assigns each pointer to the
	// PES of the first object (in order) it points to; sizes must agree
	// with PartitionSizes.
	pm := paperPM()
	trie := Build(pm, &Options{Order: paperOrder})
	sizes := PartitionSizes(pm, paperOrder)
	perPES := make(map[int]int)
	for p, ts := range trie.pointerTS {
		if ts < 0 {
			continue
		}
		_ = p
		perPES[trie.Index().pesOf(ts)]++
	}
	for i, s := range sizes {
		if perPES[i] != s {
			t.Fatalf("PES %d holds %d pointers, PartitionSizes says %d", i, perPES[i], s)
		}
	}
}

func TestTheorem3(t *testing.T) {
	// Oπ = m·σ² + n²/m for every order π (Theorem 3).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np, no := 1+rng.Intn(40), 1+rng.Intn(20)
		pm := randomPM(rng, np, no, rng.Intn(200))
		order := randomOrder(rng, no)
		sizes := PartitionSizes(pm, order)
		lhs := float64(OPPObjective(sizes))
		rhs := Theorem3RHS(sizes)
		return math.Abs(lhs-rhs) < 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem3RHSEmpty(t *testing.T) {
	if Theorem3RHS(nil) != 0 {
		t.Fatal("empty sizes should give 0")
	}
}

func TestHubOrderScoresWellOnOPP(t *testing.T) {
	// The hub-degree order should score at least as well on the OPP
	// objective as the average random order (it is the heuristic §5.2
	// justifies by Theorem 3).
	rng := rand.New(rand.NewSource(23))
	pm := matrix.New(300, 30)
	for p := 0; p < 300; p++ {
		pm.Add(p, rng.Intn(5)) // popular head objects
		pm.Add(p, 5+rng.Intn(25))
	}
	hub := OPPObjective(PartitionSizes(pm, pm.HubOrder(pm.Transpose())))
	total := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		total += OPPObjective(PartitionSizes(pm, rng.Perm(30)))
	}
	if hub < total/trials {
		t.Fatalf("hub order objective %d below random average %d", hub, total/trials)
	}
}
