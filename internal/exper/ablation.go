package exper

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
)

// AblationRow quantifies the design choices DESIGN.md calls out, per
// benchmark. Ratios > 1 mean the paper's choice wins.
type AblationRow struct {
	Name string

	// Hub metric (Definition 1) vs the naive |PMT[o]| count vs the
	// Comer-style greedy reference: cross edges produced by each order.
	CrossEdgesHITS   int
	CrossEdgesNaive  int
	CrossEdgesGreedy int

	// Theorem-2 pruning: retained rectangles and construction time with
	// and without the enclosure check.
	RectsPruned   int
	RectsUnpruned int
	BuildPruned   time.Duration
	BuildUnpruned time.Duration

	// Shape-split file sections (Fig. 5) vs uniform 4-integer rectangles.
	FileShapeSplit int64
	FileUniform    int64

	// Equivalent-object merging (extension): group counts and file sizes.
	GroupsPlain  int
	GroupsMerged int
	FilePlain    int64
	FileMerged   int64
}

// Ablations runs every ablation on every selected preset.
func Ablations(opts *Options) []AblationRow {
	var rows []AblationRow
	for _, w := range buildWorkloads(opts) {
		rows = append(rows, ablationOne(w.pm, w.preset.Name))
	}
	return rows
}

func ablationOne(pm *matrix.PointsTo, name string) AblationRow {
	row := AblationRow{Name: name}

	// Hub metric.
	hits := core.Build(pm, &core.Options{Order: pm.HubOrder(pm.Transpose())})
	naiveDeg := make([]float64, pm.NumObjects)
	for o, c := range pm.PointedByCounts() {
		naiveDeg[o] = float64(c)
	}
	naive := core.Build(pm, &core.Options{Order: matrix.OrderByDegree(naiveDeg)})
	greedy := core.Build(pm, &core.Options{Order: core.GreedyOrder(pm)})
	row.CrossEdgesHITS = hits.CrossEdges
	row.CrossEdgesNaive = naive.CrossEdges
	row.CrossEdgesGreedy = greedy.CrossEdges

	// Pruning.
	start := time.Now()
	pruned := core.Build(pm, nil)
	row.BuildPruned = time.Since(start)
	start = time.Now()
	unpruned := core.Build(pm, &core.Options{DisablePruning: true})
	row.BuildUnpruned = time.Since(start)
	row.RectsPruned = len(pruned.Rects())
	row.RectsUnpruned = len(unpruned.Rects())

	// File layout.
	row.FileShapeSplit = pruned.EncodedSize()
	row.FileUniform = uniformEncodingSize(pruned)

	// Object merging.
	merged := core.Build(pm, &core.Options{MergeEquivalentObjects: true})
	row.GroupsPlain = pruned.NumGroups
	row.GroupsMerged = merged.NumGroups
	row.FilePlain = row.FileShapeSplit
	row.FileMerged = merged.EncodedSize()
	return row
}

// uniformEncodingSize computes what the rectangle sections would cost if
// every rectangle were stored as four integers (X1 delta-coded, the rest
// plain varints), keeping the header and timestamp sections identical —
// isolating the effect of the Fig. 5 shape split.
func uniformEncodingSize(t *core.Trie) int64 {
	rs := t.Rects()
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rs[order[a]].X1 < rs[order[b]].X1 })
	var rectBytes int64
	prevX := 0
	for _, i := range order {
		r := rs[i]
		rectBytes += uvarintLen(uint64(r.X1 - prevX))
		prevX = r.X1
		rectBytes += uvarintLen(uint64(r.X2 - r.X1))
		rectBytes += uvarintLen(uint64(r.Y1))
		rectBytes += uvarintLen(uint64(r.Y2 - r.Y1))
	}
	// Non-rectangle portion of the real file: total minus the shape-split
	// rectangle payload.
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		panic(err)
	}
	shapeBytes := shapeSectionSize(t)
	return int64(buf.Len()) - shapeBytes + rectBytes
}

// shapeSectionSize measures the shape-split rectangle payload by writing a
// rectangle-free clone... impossible from outside core, so compute it
// directly with the same coding rules as core's writer (points: 2 ints,
// vlines/hlines: 3, rects: 4, each section sorted and X1 delta-coded).
func shapeSectionSize(t *core.Trie) int64 {
	type bucketKey struct {
		shape int // 0 point, 1 vline, 2 hline, 3 rect
		case1 bool
	}
	buckets := map[bucketKey][]int{}
	rs := t.Rects()
	for i, r := range rs {
		var shape int
		switch {
		case r.IsPoint():
			shape = 0
		case r.IsVLine():
			shape = 1
		case r.IsHLine():
			shape = 2
		default:
			shape = 3
		}
		k := bucketKey{shape, r.Case1}
		buckets[k] = append(buckets[k], i)
	}
	var total int64
	for shape := 0; shape < 4; shape++ {
		for _, c1 := range []bool{true, false} {
			idxs := buckets[bucketKey{shape, c1}]
			sort.Slice(idxs, func(a, b int) bool {
				ra, rb := rs[idxs[a]], rs[idxs[b]]
				if ra.X1 != rb.X1 {
					return ra.X1 < rb.X1
				}
				return ra.Y1 < rb.Y1
			})
			total += uvarintLen(uint64(len(idxs)))
			prevX := 0
			for _, i := range idxs {
				r := rs[i]
				total += uvarintLen(uint64(r.X1 - prevX))
				prevX = r.X1
				switch shape {
				case 0:
					total += uvarintLen(uint64(r.Y1))
				case 1:
					total += uvarintLen(uint64(r.Y1)) + uvarintLen(uint64(r.Y2-r.Y1))
				case 2:
					total += uvarintLen(uint64(r.X2-r.X1)) + uvarintLen(uint64(r.Y1))
				default:
					total += uvarintLen(uint64(r.X2-r.X1)) + uvarintLen(uint64(r.Y1)) + uvarintLen(uint64(r.Y2-r.Y1))
				}
			}
		}
	}
	return total
}

func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// RenderAblations renders ablation rows as text.
func RenderAblations(rows []AblationRow) string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Ablations: design choices (ratios > 1 favor the paper's choice;")
	fmt.Fprintln(&b, "xedge-hub/greedy ≤ 1 means the O(facts) hub heuristic is at least as")
	fmt.Fprintln(&b, "good as the O(m·facts) Comer-style greedy reference)")
	fmt.Fprintf(&b, "%-12s %14s %15s %14s %12s %12s %12s %12s\n",
		"program", "xedge-naive/h", "xedge-hub/grdy", "rect-unpr/pr", "t-unpr/pr", "uni/split", "grp-pl/mg", "file-pl/mg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %13.2f× %14.2f× %13.2f× %11.2f× %11.2f× %11.2f× %11.2f×\n",
			r.Name,
			safeDiv(float64(r.CrossEdgesNaive), float64(r.CrossEdgesHITS)),
			safeDiv(float64(r.CrossEdgesHITS), float64(r.CrossEdgesGreedy)),
			safeDiv(float64(r.RectsUnpruned), float64(r.RectsPruned)),
			safeDiv(float64(r.BuildUnpruned), float64(r.BuildPruned)),
			safeDiv(float64(r.FileUniform), float64(r.FileShapeSplit)),
			safeDiv(float64(r.GroupsPlain), float64(r.GroupsMerged)),
			safeDiv(float64(r.FilePlain), float64(r.FileMerged)))
	}
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
