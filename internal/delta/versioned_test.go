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

// walk applies segs over base one Extend at a time, the way the store
// advances a served chain, and calls visit with the snapshot of every
// generation g, the base first. It returns the head; every snapshot is
// closed at cleanup.
func walk(t testing.TB, base *core.Index, segs []*delta.Segment, visit func(g int, sn *delta.Snapshot)) *delta.Snapshot {
	t.Helper()
	sn, err := delta.New(base)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; ; g++ {
		cur := sn
		t.Cleanup(func() { cur.Close() })
		visit(g, sn)
		if g == len(segs) {
			return sn
		}
		if sn, err = sn.Extend(segs[g]); err != nil {
			t.Fatal(err)
		}
	}
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

// TestVersionedDifferential holds every generation of a chain — including
// ones with grown dimensions — equal to a demand oracle over the
// independently replayed matrix, across all 12 presets.
func TestVersionedDifferential(t *testing.T) {
	for i, p := range synth.Presets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ix, segs, oracles := stream(t, &p, int64(i)+1, 3, true)
			head := walk(t, ix, segs, func(g int, sn *delta.Snapshot) {
				if sn.Generation() != uint64(g) {
					t.Fatalf("generation %d is stamped %d", g, sn.Generation())
				}
				checkSnapshot(t, sn, oracles[g], segs)
			})
			if head.Chain() != len(segs) {
				t.Fatalf("chain %d, want %d", head.Chain(), len(segs))
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
			sn, err := delta.New(ix)
			if err != nil {
				t.Fatal(err)
			}
			versions := []*delta.Snapshot{sn}
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
			spawn(sn, oracles[0], 400)
			for s, seg := range segs {
				ext, err := versions[len(versions)-1].Extend(seg)
				if err != nil {
					t.Fatal(err)
				}
				versions = append(versions, ext)
				spawn(ext, oracles[s+1], 400)
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

	head, chain, err := delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Broken != "" || len(chain.Segs) != 3 {
		t.Fatalf("chain: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	checkSnapshot(t, head, oracle, chain.Segs)
	head.Close()

	// A gap in the middle of the chain serves the prefix before it.
	if err := os.Remove(delta.SegmentPath(base, 2)); err != nil {
		t.Fatal(err)
	}
	head, chain, err = delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Segs) != 1 || chain.Broken == "" {
		t.Fatalf("after gap: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	if head.Generation() != 1 {
		t.Fatalf("after gap: head %d, want 1", head.Generation())
	}
	head.Close()

	// A corrupt first segment degrades to the bare base, never an error.
	if err := os.WriteFile(delta.SegmentPath(base, 1), []byte("PESDgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	head, chain, err = delta.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Segs) != 0 || chain.Broken == "" {
		t.Fatalf("after corruption: %d segments, broken=%q", len(chain.Segs), chain.Broken)
	}
	if head.Generation() != 0 || head.Chain() != 0 {
		t.Fatal("corrupt chain did not degrade to the base")
	}
	head.Close()
}

// TestOpenAt opens a chain whose base is generation 5 at every stamp from
// 4 to past the head: OpenAt serves the newest generation at or below the
// stamp, with the chain up to it applied and the whole chain reported, and
// fails below the base.
func TestOpenAt(t *testing.T) {
	dir := t.TempDir()
	pm := synth.PresetByName("antlr").Generate(presetScale)
	base := dir + "/a.pes"
	var raw bytes.Buffer
	if _, err := core.Build(pm, nil).WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	es := synth.NewEditStream(pm, synth.EditConfig{Seed: 11, EditsPerStep: 16, GrowEvery: 2})
	oracles := []*matrix.PointsTo{pm.Clone()}
	for i := 0; i < 3; i++ {
		seg := es.Next()
		seg.Gen, seg.Parent = seg.Gen+5, seg.Parent+5
		if err := delta.WriteSegmentFile(delta.SegmentPath(base, seg.Gen), seg); err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, es.Matrix().Clone())
	}
	if _, _, err := delta.OpenAt(base, 4); err == nil {
		t.Fatal("OpenAt below the base generation did not fail")
	}
	for at := uint64(5); at <= 9; at++ {
		sn, chain, err := delta.OpenAt(base, at)
		if err != nil {
			t.Fatal(err)
		}
		g := min(at, 8)
		if sn.Generation() != g || sn.Chain() != int(g-5) || len(chain.Segs) != 3 {
			t.Fatalf("OpenAt(%d): generation %d, chain %d of %d; want generation %d", at, sn.Generation(), sn.Chain(), len(chain.Segs), g)
		}
		if lin := sn.Lineage(); lin[0] != 5 || lin[len(lin)-1] != g {
			t.Fatalf("OpenAt(%d): lineage %v", at, lin)
		}
		checkSnapshot(t, sn, oracles[g-5], chain.Segs)
		if err := sn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtendRejectsMalformedSegment: an in-memory segment gets the same
// structural checks as a decoded one before it is applied, so runs that do
// not ascend by pointer are rejected, and the dirty pointers of an applied
// segment read out ascending.
func TestExtendRejectsMalformedSegment(t *testing.T) {
	pm := synth.PresetByName("antlr").Generate(presetScale)
	v, err := delta.New(core.Build(pm, nil).Index())
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
	if got, want := ext.DirtyPointers(), []int{p0, p1}; !slices.Equal(got, want) {
		t.Fatalf("dirty pointers %v, want %v", got, want)
	}
}
