package delta_test

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/demand"
	"pestrie/internal/matrix"
	"pestrie/internal/synth"
)

// presetScale keeps the 12-preset sweeps affordable: a few thousand
// pointers for the largest benchmarks, floored at 16×8 by synth.
const presetScale = 0.001

// stream derives a base index plus a stamped segment chain and the oracle
// matrix at every generation (index 0 = base) from one preset.
func stream(t testing.TB, p *synth.Preset, seed int64, steps int, grow bool) (*core.Index, []*delta.Segment, []*matrix.PointsTo) {
	t.Helper()
	pm := p.Generate(presetScale)
	ix := core.Build(pm, nil).Index()
	cfg := synth.EditConfig{Seed: seed, EditsPerStep: 32, AddFrac: 0.7}
	if grow {
		cfg.GrowEvery = 2
	}
	es := synth.NewEditStream(pm, cfg)
	segs := make([]*delta.Segment, 0, steps)
	oracles := []*matrix.PointsTo{pm.Clone()}
	for i := 0; i < steps; i++ {
		segs = append(segs, es.Next())
		oracles = append(oracles, es.Matrix().Clone())
	}
	return ix, segs, oracles
}

// samplePointers picks a deterministic spread of pointers plus everything
// the segments touch.
func samplePointers(np int, segs []*delta.Segment) []int {
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		seen[(i*np)/41%np] = true
	}
	for _, s := range segs {
		for _, r := range s.Runs {
			seen[int(r.Ptr)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalSets(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSnapshot compares every Table-1 query of one snapshot against a
// demand-driven oracle over the generation's matrix.
func checkSnapshot(t *testing.T, sn *delta.Snapshot, pm *matrix.PointsTo, segs []*delta.Segment) {
	t.Helper()
	if sn.Pointers() != pm.NumPointers || sn.Objects() != pm.NumObjects {
		t.Fatalf("gen %d: dimensions %d×%d, oracle %d×%d",
			sn.Generation(), sn.Pointers(), sn.Objects(), pm.NumPointers, pm.NumObjects)
	}
	oracle := demand.New(pm)
	ptrs := samplePointers(pm.NumPointers, segs)
	for _, p := range ptrs {
		if !equalSets(sn.ListPointsTo(p), oracle.ListPointsTo(p)) {
			t.Fatalf("gen %d: ListPointsTo(%d) diverged", sn.Generation(), p)
		}
		if !equalSets(sn.ListAliases(p), oracle.ListAliases(p)) {
			t.Fatalf("gen %d: ListAliases(%d) diverged: got %v want %v",
				sn.Generation(), p, sortedCopy(sn.ListAliases(p)), sortedCopy(oracle.ListAliases(p)))
		}
		for _, q := range ptrs[:10] {
			if sn.IsAlias(p, q) != oracle.IsAlias(p, q) {
				t.Fatalf("gen %d: IsAlias(%d,%d) diverged", sn.Generation(), p, q)
			}
		}
		for _, o := range pm.Row(p).Members() {
			if !sn.PointsTo(p, o) {
				t.Fatalf("gen %d: PointsTo(%d,%d) false, oracle true", sn.Generation(), p, o)
			}
		}
	}
	for o := 0; o < pm.NumObjects; o += 1 + pm.NumObjects/37 {
		if !equalSets(sn.ListPointedBy(o), oracle.ListPointedBy(o)) {
			t.Fatalf("gen %d: ListPointedBy(%d) diverged", sn.Generation(), o)
		}
	}
}

// TestVersionedDifferential holds every generation of a Versioned index —
// including ones with grown dimensions — equal to a demand oracle over the
// independently replayed matrix, across all 12 presets.
func TestVersionedDifferential(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ix, segs, oracles := stream(t, &p, int64(i)+1, 3, true)
			v, err := delta.NewVersioned(ix, segs...)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if v.Chain() != len(segs) {
				t.Fatalf("chain %d, want %d", v.Chain(), len(segs))
			}
			for g, pm := range oracles {
				sn := v.At(uint64(g))
				if sn == nil || sn.Generation() != uint64(g) {
					t.Fatalf("At(%d) returned %v", g, sn)
				}
				checkSnapshot(t, sn, pm, segs)
			}
		})
	}
}

// TestCompactByteIdentity: folding base+chain at a generation produces
// files byte-identical to a from-scratch encode of the oracle matrix, for
// PES1 and PES2, on every preset.
func TestCompactByteIdentity(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ix, segs, oracles := stream(t, &p, int64(i)+101, 2, i%2 == 0)
			head := segs[len(segs)-1].Gen
			trie, err := delta.Compact(ix, segs, head, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := core.Build(oracles[len(oracles)-1], nil)
			var got1, want1 bytes.Buffer
			if _, err := trie.WriteTo(&got1); err != nil {
				t.Fatal(err)
			}
			if _, err := want.WriteTo(&want1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got1.Bytes(), want1.Bytes()) {
				t.Fatal("PES1 bytes diverge from a from-scratch encode")
			}
			var got2, want2 bytes.Buffer
			if _, err := trie.Index().WriteToV2(&got2); err != nil {
				t.Fatal(err)
			}
			if _, err := want.Index().WriteToV2(&want2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2.Bytes(), want2.Bytes()) {
				t.Fatal("PES2 bytes diverge from a from-scratch encode")
			}
			// A mid-chain generation compacts too.
			if _, err := delta.Compact(ix, segs, segs[0].Gen, nil); err != nil {
				t.Fatal(err)
			}
			// A stamp between generations does not.
			if _, err := delta.Compact(ix, segs, head+1, nil); err == nil {
				t.Fatal("compacting past the head did not fail")
			}
		})
	}
}

// TestSnapshotIsolation pins readers to every generation while the chain
// keeps extending on other goroutines: each reader must keep seeing its
// generation's answers, bit for bit, across all 12 presets. Run with -race.
func TestSnapshotIsolation(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			ix, segs, oracles := stream(t, &p, int64(i)+201, 4, true)
			v, err := delta.NewVersioned(ix)
			if err != nil {
				t.Fatal(err)
			}
			versions := []*delta.Versioned{v}
			var wg sync.WaitGroup
			errs := make(chan error, len(oracles)*2)
			spawn := func(sn *delta.Snapshot, pm *matrix.PointsTo, rounds int) {
				ptrs := samplePointers(pm.NumPointers, segs)
				if len(ptrs) > 24 {
					ptrs = ptrs[:24]
				}
				want := make(map[int][]int, len(ptrs))
				for _, q := range ptrs {
					want[q] = sortedCopy(pm.Row(q).Members())
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for _, q := range ptrs {
							if got := sortedCopy(sn.ListPointsTo(q)); !equalSets(got, want[q]) {
								errs <- fmt.Errorf("gen %d: ListPointsTo(%d) changed under extension: got %v want %v",
									sn.Generation(), q, got, want[q])
								return
							}
						}
					}
				}()
			}
			// Readers pinned to the base start before any segment applies;
			// each extension starts readers for the new head while the older
			// pins keep running.
			spawn(v.Head(), oracles[0], 400)
			for s, seg := range segs {
				ext, err := versions[len(versions)-1].Extend(seg)
				if err != nil {
					t.Fatal(err)
				}
				versions = append(versions, ext)
				spawn(ext.Head(), oracles[s+1], 400)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for _, vv := range versions {
				if err := vv.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestChainDiscovery exercises the on-disk chain: write base + segments,
// load, break the chain in each documented way, and confirm the valid
// prefix still serves.
func TestChainDiscovery(t *testing.T) {
	dir := t.TempDir()
	p := synth.PresetByName("antlr")
	pm := p.Generate(presetScale)
	base := dir + "/a.pes"
	trie := core.Build(pm, nil)
	var raw bytes.Buffer
	if _, err := trie.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	hint, err := delta.FileHint(base)
	if err != nil {
		t.Fatal(err)
	}
	es := synth.NewEditStream(pm, synth.EditConfig{Seed: 9, EditsPerStep: 16, BaseHint: hint})
	for i := 0; i < 3; i++ {
		seg := es.Next()
		if err := delta.WriteSegmentFile(delta.SegmentPath(base, seg.Gen), seg); err != nil {
			t.Fatal(err)
		}
	}
	oracle := es.Matrix().Clone()

	v, chain, err := delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Broken != "" || len(chain.Segs) != 3 {
		t.Fatalf("chain: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	checkSnapshot(t, v.Head(), oracle, chain.Segs)
	v.Close()

	// A gap in the middle of the chain serves the prefix before it.
	if err := os.Remove(delta.SegmentPath(base, 2)); err != nil {
		t.Fatal(err)
	}
	v, chain, err = delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Segs) != 1 || chain.Broken == "" {
		t.Fatalf("after gap: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	if v.Head().Generation() != 1 {
		t.Fatalf("after gap: head %d, want 1", v.Head().Generation())
	}
	v.Close()

	// A corrupt first segment degrades to the bare base, never an error.
	if err := os.WriteFile(delta.SegmentPath(base, 1), []byte("PESDgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, chain, err = delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Segs) != 0 || chain.Broken == "" {
		t.Fatalf("after corruption: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	if v.Head().Generation() != 0 || v.Chain() != 0 {
		t.Fatal("corrupt chain did not degrade to the base")
	}
	v.Close()
}

// TestExtendRejectsMalformedSegment: an in-memory segment gets the same
// structural checks as a decoded one before it is applied, because apply
// merges the pointers a segment dirties on the assumption that its runs
// ascend.
func TestExtendRejectsMalformedSegment(t *testing.T) {
	pm := synth.PresetByName("antlr").Generate(presetScale)
	v, err := delta.NewVersioned(core.Build(pm, nil).Index())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	p0, p1 := -1, -1
	for p := 0; p < pm.NumPointers && p1 < 0; p++ {
		if pm.Row(p).Count() > 0 {
			if p0 < 0 {
				p0 = p
			} else {
				p1 = p
			}
		}
	}
	del := func(p int) delta.Run {
		return delta.Run{Ptr: int32(p), Del: []int32{int32(pm.Row(p).Members()[0])}}
	}
	seg := &delta.Segment{Gen: 1, NumPointers: pm.NumPointers, NumObjects: pm.NumObjects,
		Runs: []delta.Run{del(p1), del(p0)}}
	if _, err := v.Extend(seg); err == nil {
		t.Fatal("a segment with descending runs applied")
	}
	seg.Runs[0], seg.Runs[1] = seg.Runs[1], seg.Runs[0]
	ext, err := v.Extend(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if got, want := ext.Head().DirtyPointers(), []int{p0, p1}; !slices.Equal(got, want) {
		t.Fatalf("dirty pointers %v, want %v", got, want)
	}
}
