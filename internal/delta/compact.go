package delta

import (
	"fmt"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
)

// Compaction folds a delta chain back into a base: RecoverMatrix inverts
// the base encoding exactly (§4), the chain replays onto that matrix, and
// core.Build is deterministic — so the compacted file is byte-identical to
// persisting a from-scratch build of the same facts, which is what the CI
// gate checks on every preset.

// MatrixAt replays the chain prefix up to generation gen onto the exactly
// recovered base matrix. gen must be the base generation (given by
// segs[0].Parent, or any value with an empty chain) or the stamp of a
// segment in segs; replay is strict, so a mis-chained segment fails
// instead of silently corrupting the result.
func MatrixAt(base *core.Index, segs []*Segment, gen uint64) (*matrix.PointsTo, error) {
	pm := base.RecoverMatrix()
	if len(segs) == 0 {
		return pm, nil
	}
	if gen < segs[0].Parent {
		return nil, fmt.Errorf("pesd: generation %d predates the base generation %d", gen, segs[0].Parent)
	}
	at := segs[0].Parent
	for _, s := range segs {
		if s.Gen > gen {
			break
		}
		if s.Parent != at {
			return nil, fmt.Errorf("pesd: segment %d chains onto generation %d, not %d", s.Gen, s.Parent, at)
		}
		if s.NumPointers > pm.NumPointers || s.NumObjects > pm.NumObjects {
			pm = pm.Grown(
				maxInt(s.NumPointers, pm.NumPointers),
				maxInt(s.NumObjects, pm.NumObjects))
		}
		for _, r := range s.Runs {
			p := int(r.Ptr)
			for _, o := range r.Del {
				if !pm.Has(p, int(o)) {
					return nil, fmt.Errorf("pesd: segment %d removes absent fact (%d,%d)", s.Gen, p, o)
				}
				pm.Remove(p, int(o))
			}
			for _, o := range r.Add {
				if pm.Has(p, int(o)) {
					return nil, fmt.Errorf("pesd: segment %d adds existing fact (%d,%d)", s.Gen, p, o)
				}
				pm.Add(p, int(o))
			}
		}
		at = s.Gen
	}
	if at != gen {
		return nil, fmt.Errorf("pesd: no generation %d in the chain (nearest is %d)", gen, at)
	}
	return pm, nil
}

// Compact builds a fresh Trie holding the facts at generation gen —
// byte-identical, once persisted, to encoding a from-scratch build of the
// same matrix with the same options.
func Compact(base *core.Index, segs []*Segment, gen uint64, opts *core.Options) (*core.Trie, error) {
	pm, err := MatrixAt(base, segs, gen)
	if err != nil {
		return nil, err
	}
	return core.Build(pm, opts), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
