package exper

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"pestrie/internal/bdd"
	"pestrie/internal/bitenc"
	"pestrie/internal/bzip"
	"pestrie/internal/core"
	"pestrie/internal/synth"
)

// Table8Row holds the persistence-generation measurements for one benchmark
// (Table 8 of the paper): encoded file sizes for PesP / BitP / BDD / bzip
// and construction times for PesP / BitP / bzip.
type Table8Row struct {
	Name string

	SizePesP int64
	SizeBitP int64
	SizeBDD  int64 // 0 when skipped (per the paper, only Dacapo-2006)
	SizeBzip int64

	BuildPesP time.Duration
	BuildBitP time.Duration
	BuildBzip time.Duration
}

// Table8 regenerates the storage/construction table. bzip compresses the
// serialized points-to matrix, exactly the paper's setup (bzip and BDD
// encode only PM, not the alias matrix).
func Table8(opts *Options) []Table8Row {
	var rows []Table8Row
	for _, w := range buildWorkloads(opts) {
		rows = append(rows, table8One(w))
	}
	return rows
}

func table8One(w workload) Table8Row {
	row := Table8Row{Name: w.preset.Name}

	start := time.Now()
	trie := core.Build(w.pm, nil)
	row.SizePesP = trie.EncodedSize()
	row.BuildPesP = time.Since(start)

	start = time.Now()
	be := bitenc.Encode(w.pm)
	row.SizeBitP = be.EncodedSize()
	row.BuildBitP = time.Since(start)

	// bzip compresses the raw fixed-width export — the representation an
	// analysis dumps before any semantic encoding (§1's "gigabytes of
	// pointer information"); PesP/BitP start from the same in-memory
	// matrix.
	var raw bytes.Buffer
	if _, err := w.pm.WriteRaw(&raw); err != nil {
		panic(err)
	}
	// Scale bzip2's ~900 KB window with the benchmark so the baseline
	// keeps its real inability to exploit redundancy across a huge dump.
	window := int(900 * 1024 * w.scale)
	start = time.Now()
	row.SizeBzip = int64(len(bzip.CompressBlockSize(raw.Bytes(), window)))
	row.BuildBzip = time.Since(start)

	if w.preset.Analysis == synth.JavaObjSensitive {
		// Table 8's BDD column is a buddy-style node-table dump (20
		// bytes/node, the figure §2.1 cites).
		row.SizeBDD = bdd.EncodeMatrix(w.pm).NodeTableSize()
	}
	return row
}

// RenderTable8 renders Table8 rows as text, with the headline geometric
// means the paper reports (PesP vs BitP 10.5×, vs BDD 17.5×, vs bzip
// 39.3×).
func RenderTable8(rows []Table8Row) string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Table 8: encoding size and construction time")
	fmt.Fprintf(&b, "%-12s | %10s %10s %10s %10s | %10s %10s %10s\n",
		"program", "pes", "bit", "bdd", "bzip", "t-pes", "t-bit", "t-bzip")
	for _, r := range rows {
		bddCol := "-"
		if r.SizeBDD > 0 {
			bddCol = fmt.Sprintf("%.1fK", kib(r.SizeBDD))
		}
		fmt.Fprintf(&b, "%-12s | %9.1fK %9.1fK %10s %9.1fK | %8.1fms %8.1fms %8.1fms\n",
			r.Name,
			kib(r.SizePesP), kib(r.SizeBitP), bddCol, kib(r.SizeBzip),
			ms(r.BuildPesP), ms(r.BuildBitP), ms(r.BuildBzip))
	}
	if len(rows) > 0 {
		gBit := geomean(rows, func(r Table8Row) (float64, float64) {
			return float64(r.SizeBitP), float64(r.SizePesP)
		})
		gBzip := geomean(rows, func(r Table8Row) (float64, float64) {
			return float64(r.SizeBzip), float64(r.SizePesP)
		})
		gBDD := geomean(rows, func(r Table8Row) (float64, float64) {
			if r.SizeBDD == 0 {
				return 0, 0 // skipped rows are excluded
			}
			return float64(r.SizeBDD), float64(r.SizePesP)
		})
		fmt.Fprintf(&b, "geomean PesP advantage: %.1f× vs BitP, %.1f× vs BDD, %.1f× vs bzip"+
			"  (paper: 10.5× / 17.5× / 39.3×)\n", gBit, gBDD, gBzip)
	}
	return b.String()
}

func kib(n int64) float64 { return float64(n) / 1024 }

// geomean computes the geometric mean of num/den over rows, skipping rows
// where f returns a zero denominator or numerator.
func geomean(rows []Table8Row, f func(Table8Row) (num, den float64)) float64 {
	prod, n := 1.0, 0
	for _, r := range rows {
		num, den := f(r)
		if num <= 0 || den <= 0 {
			continue
		}
		prod *= num / den
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}
