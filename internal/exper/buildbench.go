package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pestrie/internal/bitenc"
	"pestrie/internal/bitset"
	"pestrie/internal/core"
	"pestrie/internal/par"
)

// BuildBenchRow measures construction and decode for one benchmark:
// wall-clock times for the (serial) Build, the faster of two, and for
// decoding the persisted file with -j 1 versus -j N. Serialized to
// BENCH_build.json. The host facts say what the timings were measured on;
// the decode speedup is null when GOMAXPROCS is below Workers, since such
// a run measures time slicing, not parallelism.
type BuildBenchRow struct {
	Name       string  `json:"name"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"` // resolved pool size of the parallel decode
	Gomaxprocs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Pointers   int     `json:"pointers"`
	Objects    int     `json:"objects"`
	Facts      int     `json:"facts"`
	PesBytes   int64   `json:"pes_bytes"`

	BuildNS int64 `json:"build_ns"`

	DecodeSerialNS   int64    `json:"decode_serial_ns"`
	DecodeParallelNS int64    `json:"decode_parallel_ns"`
	DecodeSpeedup    *float64 `json:"decode_speedup"`

	// Zero-copy PES2 columns: the same index persisted as page-aligned
	// columns, opened cold from a real file via mmap. The speedup compares
	// the cold open against the sequential PES1 decode — the two ways a
	// process can go from file to first answered query. ColdOpenV2NS is the
	// first open of the freshly-written file; WarmOpenV2NS is the fastest
	// of several re-opens of the same file, i.e. with the page cache and
	// allocator warm — the gap between them is what madvise-style readahead
	// hints can recover without dropping caches.
	PesV2Bytes    int64   `json:"pes_v2_bytes"`
	ColdOpenV2NS  int64   `json:"cold_open_v2_ns"`
	WarmOpenV2NS  int64   `json:"warm_open_v2_ns"`
	V2OpenSpeedup float64 `json:"v2_open_speedup"`
	V2Identical   bool    `json:"v2_identical"` // mapped answers spot-checked against decoded

	// Substrate columns: the same work re-run with the GCC-style linked
	// bitmap baseline forced (-bitsubstrate=linked), against the flat
	// hybrid substrate. Build exercises transpose/hashing/alias-matrix set
	// ops; decode never touches bit sets (recorded to prove exactly that);
	// the bitenc query mix (all-pairs IsAlias + ListAliases + ListPointsTo
	// over the base pointers) is where the linked baseline's O(blocks) bit
	// lookups hurt most. Speedups are linked-time / flat-time.
	BuildFlatNS            int64   `json:"build_flat_ns"`
	BuildLinkedNS          int64   `json:"build_linked_ns"`
	SubstrateBuildSpeedup  float64 `json:"substrate_build_speedup"`
	DecodeFlatNS           int64   `json:"decode_flat_ns"`
	DecodeLinkedNS         int64   `json:"decode_linked_ns"`
	SubstrateDecodeSpeedup float64 `json:"substrate_decode_speedup"`
	BitencQueryFlatNS      int64   `json:"bitenc_query_flat_ns"`
	BitencQueryLinkedNS    int64   `json:"bitenc_query_linked_ns"`
	SubstrateBitencSpeedup float64 `json:"substrate_bitenc_speedup"`
	SubstrateIdentical     bool    `json:"substrate_identical"` // linked vs flat .pes byte-compare
}

// BuildBench runs the construction/decode experiment: every preset is
// built twice, timing the faster build (a process's first build also pays
// for faulting in a fresh heap), and its persisted file is decoded once
// sequentially and once over the worker pool.
func BuildBench(opts *Options) []BuildBenchRow {
	var rows []BuildBenchRow
	for _, w := range buildWorkloads(opts) {
		rows = append(rows, buildBenchOne(w))
	}
	return rows
}

func buildBenchOne(w workload) BuildBenchRow {
	row := BuildBenchRow{
		Name:       w.preset.Name,
		Scale:      w.scale,
		Workers:    par.Workers(w.workers),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Pointers:   w.pm.NumPointers,
		Objects:    w.pm.NumObjects,
		Facts:      w.pm.Edges(),
	}

	var trie *core.Trie
	row.BuildNS = bestOf2(func() { trie = core.Build(w.pm, nil) })

	var file bytes.Buffer
	if _, err := trie.WriteTo(&file); err != nil {
		panic(err)
	}
	row.PesBytes = int64(file.Len())

	raw := file.Bytes()
	start := time.Now()
	if _, err := core.LoadWith(bytes.NewReader(raw), 1); err != nil {
		panic(err)
	}
	row.DecodeSerialNS = time.Since(start).Nanoseconds()

	start = time.Now()
	decoded, err := core.LoadWith(bytes.NewReader(raw), w.workers)
	if err != nil {
		panic(err)
	}
	row.DecodeParallelNS = time.Since(start).Nanoseconds()
	row.DecodeSpeedup = parallelSpeedup(row.DecodeSerialNS, row.DecodeParallelNS, row.Workers)

	benchV2(decoded, &row)
	benchSubstrate(w, &row, raw)
	return row
}

// benchSubstrate re-runs build, decode, and the bitenc query mix with the
// linked paper-baseline substrate forced and then with the flat substrate,
// back to back in the already-warm process (the ambient DecodeSerialNS
// number includes the run's cold start, so comparing the warm linked run
// against it would flatter whichever side ran later),
// and byte-compares the two persisted .pes files. The matrix is
// regenerated under each substrate so its rows actually live on the
// structure being measured.
func benchSubstrate(w workload, row *BuildBenchRow, flatPes []byte) {
	prev := bitset.Default()
	defer bitset.Use(prev)

	bitset.Use(bitset.LinkedSubstrate)
	pmLinked := w.preset.Generate(w.scale)
	var builtLinked *core.Trie
	row.BuildLinkedNS = bestOf2(func() {
		builtLinked = core.Build(pmLinked, nil)
	})

	var linkedFile bytes.Buffer
	if _, err := builtLinked.WriteTo(&linkedFile); err != nil {
		panic(err)
	}
	row.SubstrateIdentical = bytes.Equal(flatPes, linkedFile.Bytes())
	if !row.SubstrateIdentical {
		panic(fmt.Sprintf("%s: flat and linked substrates persisted different files", w.preset.Name))
	}

	row.DecodeLinkedNS = bestOf2(func() {
		if _, err := core.LoadWith(bytes.NewReader(linkedFile.Bytes()), 1); err != nil {
			panic(err)
		}
	})

	encLinked := bitenc.Encode(pmLinked)
	row.BitencQueryLinkedNS = timeBitencMix(encLinked, w.base)

	bitset.Use(bitset.FlatSubstrate)
	pmFlat := w.preset.Generate(w.scale)
	row.BuildFlatNS = bestOf2(func() {
		core.Build(pmFlat, nil)
	})
	row.SubstrateBuildSpeedup = nsRatio(row.BuildLinkedNS, row.BuildFlatNS)

	row.DecodeFlatNS = bestOf2(func() {
		if _, err := core.LoadWith(bytes.NewReader(flatPes), 1); err != nil {
			panic(err)
		}
	})
	row.SubstrateDecodeSpeedup = nsRatio(row.DecodeLinkedNS, row.DecodeFlatNS)

	encFlat := bitenc.Encode(pmFlat)
	row.BitencQueryFlatNS = timeBitencMix(encFlat, w.base)
	row.SubstrateBitencSpeedup = nsRatio(row.BitencQueryLinkedNS, row.BitencQueryFlatNS)
}

// bestOf2 runs fn twice and returns the faster wall-clock, squeezing
// one-off allocator and GC noise out of single-shot comparisons.
func bestOf2(fn func()) int64 {
	best := int64(-1)
	for i := 0; i < 2; i++ {
		start := time.Now()
		fn()
		if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// timeBitencMix times the §7.1.1 query mix against one bitenc encoding.
func timeBitencMix(q querier, base []int) int64 {
	aliasNS, _ := timeIsAliasPairs(q, base)
	return (aliasNS + timeListAliases(q, base) + timeListPointsTo(q, base)).Nanoseconds()
}

// benchV2 persists the decoded index as PES2 to a real temp file and
// measures a cold OpenFile — mmap plus validation, no decode — then
// spot-checks the mapped index against the heap one.
func benchV2(decoded *core.Index, row *BuildBenchRow) {
	f, err := os.CreateTemp("", "pestrie-bench-*.pes")
	if err != nil {
		panic(err)
	}
	path := f.Name()
	defer os.Remove(path)
	n, err := decoded.WriteToV2(f)
	if err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	row.PesV2Bytes = n

	// First open of the freshly written file is the cold number; the best
	// of several immediate re-opens is the warm-page-cache number (no
	// cache dropping needed — the kernel keeps the pages between opens).
	start := time.Now()
	mapped, err := core.OpenFile(path)
	if err != nil {
		panic(err)
	}
	row.ColdOpenV2NS = time.Since(start).Nanoseconds()
	row.WarmOpenV2NS = row.ColdOpenV2NS
	defer mapped.Close()
	const reopens = 7
	for i := 0; i < reopens; i++ {
		start = time.Now()
		re, err := core.OpenFile(path)
		if err != nil {
			panic(err)
		}
		ns := time.Since(start).Nanoseconds()
		re.Close()
		if ns < row.WarmOpenV2NS {
			row.WarmOpenV2NS = ns
		}
	}
	row.V2OpenSpeedup = nsRatio(row.DecodeSerialNS, row.ColdOpenV2NS)

	row.V2Identical = mapped.Mapped()
	pStride := 1 + decoded.NumPointers/64
	for p := 0; p < decoded.NumPointers && row.V2Identical; p += pStride {
		row.V2Identical = equalIntSlices(mapped.ListPointsTo(p), decoded.ListPointsTo(p)) &&
			equalIntSlices(mapped.ListAliases(p), decoded.ListAliases(p))
	}
	oStride := 1 + decoded.NumObjects/64
	for o := 0; o < decoded.NumObjects && row.V2Identical; o += oStride {
		row.V2Identical = equalIntSlices(mapped.ListPointedBy(o), decoded.ListPointedBy(o))
	}
	if !row.V2Identical {
		panic(fmt.Sprintf("%s: PES2 mapped answers diverge from PES1 decode", row.Name))
	}
}

func equalIntSlices(a, b []int) bool {
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

// parallelSpeedup is serial/parallel, or nil when the process had fewer
// cores than workers.
func parallelSpeedup(serialNS, parallelNS int64, workers int) *float64 {
	if runtime.GOMAXPROCS(0) < workers {
		return nil
	}
	s := nsRatio(serialNS, parallelNS)
	return &s
}

// speedupCell renders a parallel speedup, "-" when it is null.
func speedupCell(s *float64) string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f×", *s)
}

func nsRatio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RenderBuildBench renders BuildBench rows as text.
func RenderBuildBench(rows []BuildBenchRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Build bench: construction, and decode -j1 vs -jN (GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-12s %4s | %10s | %10s %10s %7s | %10s %10s %7s | %7s %7s %7s | %s\n",
		"program", "j", "build", "dec-j1", "dec-jN", "speedup",
		"v2-cold", "v2-warm", "speedup", "sub-bld", "sub-dec", "sub-qry", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %4d | %8.1fms | %8.1fms %8.1fms %7s | %8.3fms %8.3fms %6.0f× | %6.2f× %6.2f× %6.2f× | %v\n",
			r.Name, r.Workers,
			float64(r.BuildNS)/1e6,
			float64(r.DecodeSerialNS)/1e6, float64(r.DecodeParallelNS)/1e6, speedupCell(r.DecodeSpeedup),
			float64(r.ColdOpenV2NS)/1e6, float64(r.WarmOpenV2NS)/1e6, r.V2OpenSpeedup,
			r.SubstrateBuildSpeedup, r.SubstrateDecodeSpeedup, r.SubstrateBitencSpeedup,
			r.V2Identical && r.SubstrateIdentical)
	}
	return b.String()
}

// WriteBuildBenchJSON writes BuildBench rows as indented JSON.
func WriteBuildBenchJSON(w io.Writer, rows []BuildBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
