package exper

import (
	"bytes"
	"fmt"
	"time"

	"pestrie/internal/bdd"
	"pestrie/internal/bitenc"
	"pestrie/internal/core"
	"pestrie/internal/demand"
	"pestrie/internal/synth"
)

// Table7Row holds the query-performance measurements for one benchmark
// (Table 7 of the paper): IsAlias / ListAliases / ListPointsTo times for
// PesP, BitP, and the demand-driven baseline; BDD ListPointsTo for the
// group the paper evaluated BDDs on; decoding time and query memory for
// PesP and BitP.
type Table7Row struct {
	Name       string
	BasePtrs   int
	AliasPairs int // conflicting pairs found (all encodings must agree)

	IsAliasPesP   time.Duration
	IsAliasBitP   time.Duration
	IsAliasDemand time.Duration

	ListAliasesPesP   time.Duration
	ListAliasesBitP   time.Duration
	ListAliasesDemand time.Duration

	ListPointsToPesP time.Duration
	ListPointsToBDD  time.Duration // 0 when the BDD column is skipped

	DecodePesP time.Duration
	DecodeBitP time.Duration

	MemPesP int64
	MemBitP int64
}

// Table7 regenerates the querying-performance table. Following the paper,
// the BDD column is only populated for the Dacapo-2006 group (antlr,
// luindex, bloat, chart) — the group Paddle's BDDs could handle.
func Table7(opts *Options) []Table7Row {
	var rows []Table7Row
	for _, w := range buildWorkloads(opts) {
		rows = append(rows, table7One(w))
	}
	return rows
}

func table7One(w workload) Table7Row {
	row := Table7Row{Name: w.preset.Name, BasePtrs: len(w.base)}

	// PesP: build, persist, then measure decode + queries on the decoded
	// index (the persistence workflow of §7.1).
	trie := core.Build(w.pm, nil)
	var pesFile bytes.Buffer
	if _, err := trie.WriteTo(&pesFile); err != nil {
		panic(err)
	}
	start := time.Now()
	pes, err := core.Load(bytes.NewReader(pesFile.Bytes()))
	if err != nil {
		panic(err)
	}
	row.DecodePesP = time.Since(start)
	row.MemPesP = pes.MemoryFootprint()

	// BitP: encode, persist, decode.
	be := bitenc.Encode(w.pm)
	var bitFile bytes.Buffer
	if _, err := be.WriteTo(&bitFile); err != nil {
		panic(err)
	}
	start = time.Now()
	bit, err := bitenc.Load(bytes.NewReader(bitFile.Bytes()))
	if err != nil {
		panic(err)
	}
	row.DecodeBitP = time.Since(start)
	row.MemBitP = bit.MemoryFootprint()

	dem := demand.New(w.pm)

	row.IsAliasPesP, row.AliasPairs = timeIsAliasPairs(pes, w.base)
	bitTime, bitPairs := timeIsAliasPairs(bit, w.base)
	demTime, demPairs := timeIsAliasPairs(dem, w.base)
	if bitPairs != row.AliasPairs || demPairs != row.AliasPairs {
		panic(fmt.Sprintf("%s: encodings disagree on alias pairs: pes=%d bit=%d demand=%d",
			w.preset.Name, row.AliasPairs, bitPairs, demPairs))
	}
	row.IsAliasBitP, row.IsAliasDemand = bitTime, demTime

	row.ListAliasesPesP = timeListAliases(pes, w.base)
	row.ListAliasesBitP = timeListAliases(bit, w.base)
	row.ListAliasesDemand = timeListAliases(demand.New(w.pm), w.base)

	row.ListPointsToPesP = timeListPointsTo(pes, w.base)
	if w.preset.Analysis == synth.JavaObjSensitive {
		rel := bdd.EncodeMatrix(w.pm)
		start := time.Now()
		for _, p := range w.base {
			rel.ListPointsTo(p)
		}
		row.ListPointsToBDD = time.Since(start)
	}
	return row
}

// RenderTable7 renders Table7 rows as text.
func RenderTable7(rows []Table7Row) string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Table 7: query time, decoding time, query memory (K = KiB)")
	fmt.Fprintf(&b, "%-12s %6s | %9s %9s %9s | %9s %9s %9s | %9s %9s | %8s %8s | %9s %9s\n",
		"program", "#base",
		"ia-pes", "ia-bit", "ia-dem",
		"la-pes", "la-bit", "la-dem",
		"lpt-pes", "lpt-bdd",
		"dec-pes", "dec-bit",
		"mem-pes", "mem-bit")
	for _, r := range rows {
		bddCol := "-"
		if r.ListPointsToBDD > 0 {
			bddCol = fmt.Sprintf("%.1fms", ms(r.ListPointsToBDD))
		}
		fmt.Fprintf(&b, "%-12s %6d | %8.1fms %8.1fms %8.1fms | %8.1fms %8.1fms %8.1fms | %8.1fms %9s | %6.1fms %6.1fms | %8.1fK %8.1fK\n",
			r.Name, r.BasePtrs,
			ms(r.IsAliasPesP), ms(r.IsAliasBitP), ms(r.IsAliasDemand),
			ms(r.ListAliasesPesP), ms(r.ListAliasesBitP), ms(r.ListAliasesDemand),
			ms(r.ListPointsToPesP), bddCol,
			ms(r.DecodePesP), ms(r.DecodeBitP),
			kib(r.MemPesP), kib(r.MemBitP))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
