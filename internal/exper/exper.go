// Package exper is the evaluation harness: it regenerates every table and
// figure of the paper's experimental section (§2 and §7) over the scaled
// benchmark presets. Each experiment returns structured rows plus a
// plain-text rendering, so both cmd/benchtables and the testing.B
// benchmarks reuse the same code paths. EXPERIMENTS.md records the results
// against the paper's numbers.
package exper

import (
	"bytes"
	"fmt"
	"time"

	"pestrie/internal/matrix"
	"pestrie/internal/synth"
)

// Options configure a harness run.
type Options struct {
	// Scale shrinks the Table 2 benchmark dimensions (≤0 picks
	// synth.DefaultScale, i.e. 1% of the paper's sizes).
	Scale float64
	// Presets restricts the run to the named presets; empty means all 12.
	Presets []string
	// BaseStride subsamples the base-pointer population used for the
	// query workloads (≤0 picks one that keeps all-pairs IsAlias around a
	// million pair queries).
	BaseStride int
}

func (o *Options) scale() float64 {
	if o == nil || o.Scale <= 0 {
		return synth.DefaultScale
	}
	return o.Scale
}

func (o *Options) presets() []synth.Preset {
	if o == nil || len(o.Presets) == 0 {
		return synth.Presets
	}
	var out []synth.Preset
	for _, name := range o.Presets {
		if p := synth.PresetByName(name); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func (o *Options) baseStride(pm *matrix.PointsTo) int {
	if o != nil && o.BaseStride > 0 {
		return o.BaseStride
	}
	// Aim for ≈1000 base pointers so all-pairs IsAlias stays ≈500k pairs.
	stride := pm.NumPointers / 1000
	if stride < 1 {
		stride = 1
	}
	return stride
}

// hubThreshold rescales the paper's hub-degree threshold (5000) to the run
// scale: hub degrees are (points-to size)·√(pointed-by count), and both
// factors shrink as the matrix shrinks, so the threshold scales linearly.
func hubThreshold(scale float64) float64 {
	return matrix.DefaultHubThreshold * scale
}

// --- Table 2 ----------------------------------------------------------

// Table2Row characterizes one scaled benchmark (Table 2 of the paper).
type Table2Row struct {
	Name     string
	Language string
	Analysis string
	KLOC     float64 // the paper's reported KLOC (unscaled)
	Pointers int     // scaled
	Objects  int     // scaled
	Edges    int
}

// Table2 regenerates the benchmark characterization table.
func Table2(opts *Options) []Table2Row {
	var rows []Table2Row
	for _, p := range opts.presets() {
		pm := p.Generate(opts.scale())
		rows = append(rows, Table2Row{
			Name:     p.Name,
			Language: p.Language,
			Analysis: p.Analysis.String(),
			KLOC:     p.KLOC,
			Pointers: pm.NumPointers,
			Objects:  pm.NumObjects,
			Edges:    pm.Edges(),
		})
	}
	return rows
}

// RenderTable2 renders Table2 rows as text.
func RenderTable2(rows []Table2Row) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Table 2: benchmark characterization (scaled)\n")
	fmt.Fprintf(&b, "%-12s %-5s %-24s %9s %10s %9s %9s\n",
		"program", "lang", "analysis", "KLOC", "#pointers", "#objects", "#facts")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-5s %-24s %9.1f %10d %9d %9d\n",
			r.Name, r.Language, r.Analysis, r.KLOC, r.Pointers, r.Objects, r.Edges)
	}
	return b.String()
}

// --- Figure 1 ---------------------------------------------------------

// Figure1Row reports the equivalence and hub characteristics of one
// benchmark (Figure 1 of the paper).
type Figure1Row struct {
	Name               string
	PointerRatio       float64 // pointer classes / pointers (paper avg 18.5%)
	ObjectRatio        float64 // object classes / objects (paper avg 83%)
	HubThreshold       float64
	FracAboveThreshold float64 // paper avg 70.2% above 5000 (full scale)
	MedianHub          float64
	P99Hub             float64
}

// Figure1 regenerates the characteristics study.
func Figure1(opts *Options) []Figure1Row {
	threshold := hubThreshold(opts.scale())
	var rows []Figure1Row
	for _, p := range opts.presets() {
		pm := p.Generate(opts.scale())
		c := matrix.Characterize(pm, threshold)
		rows = append(rows, Figure1Row{
			Name:               p.Name,
			PointerRatio:       c.PointerRatio,
			ObjectRatio:        c.ObjectRatio,
			HubThreshold:       threshold,
			FracAboveThreshold: c.FracAboveThreshold,
			MedianHub:          c.HubQuantiles[0.5],
			P99Hub:             c.HubQuantiles[0.99],
		})
	}
	return rows
}

// RenderFigure1 renders Figure1 rows as text.
func RenderFigure1(rows []Figure1Row) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Figure 1: equivalence and hub characteristics\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %14s %12s %12s\n",
		"program", "ptr-classes", "obj-classes", "hubs>thresh", "median-hub", "p99-hub")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %11.1f%% %11.1f%% %13.1f%% %12.1f %12.1f\n",
			r.Name, 100*r.PointerRatio, 100*r.ObjectRatio,
			100*r.FracAboveThreshold, r.MedianHub, r.P99Hub)
	}
	if len(rows) > 0 {
		var pr, or, fr float64
		for _, r := range rows {
			pr += r.PointerRatio
			or += r.ObjectRatio
			fr += r.FracAboveThreshold
		}
		n := float64(len(rows))
		fmt.Fprintf(&b, "%-12s %11.1f%% %11.1f%% %13.1f%%   (paper: 18.5%% / 83%% / 70.2%%)\n",
			"average", 100*pr/n, 100*or/n, 100*fr/n)
	}
	return b.String()
}

// --- shared workload helpers ------------------------------------------

// workload bundles everything the query experiments need for one preset.
type workload struct {
	preset synth.Preset
	pm     *matrix.PointsTo
	base   []int
	scale  float64
}

func buildWorkloads(opts *Options) []workload {
	var out []workload
	for _, p := range opts.presets() {
		pm := p.Generate(opts.scale())
		out = append(out, workload{
			preset: p,
			pm:     pm,
			base:   synth.BasePointers(pm, opts.baseStride(pm)),
			scale:  opts.scale(),
		})
	}
	return out
}

// querier is the common query interface all encodings implement.
type querier interface {
	IsAlias(p, q int) bool
	ListAliases(p int) []int
	ListPointsTo(p int) []int
}

// timeIsAliasPairs measures all-pairs IsAlias over the base pointers
// (the §7.1.1 "aliasing pairs" workload, method 1).
func timeIsAliasPairs(q querier, base []int) (time.Duration, int) {
	pairs := 0
	start := time.Now()
	for i := 0; i < len(base); i++ {
		for j := i + 1; j < len(base); j++ {
			if q.IsAlias(base[i], base[j]) {
				pairs++
			}
		}
	}
	return time.Since(start), pairs
}

// timeListAliases measures ListAliases over every base pointer (§7.1.1
// method 2).
func timeListAliases(q querier, base []int) time.Duration {
	start := time.Now()
	for _, p := range base {
		q.ListAliases(p)
	}
	return time.Since(start)
}

// timeListPointsTo measures ListPointsTo over every base pointer.
func timeListPointsTo(q querier, base []int) time.Duration {
	start := time.Now()
	for _, p := range base {
		q.ListPointsTo(p)
	}
	return time.Since(start)
}
