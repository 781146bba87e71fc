package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pestrie/internal/core"
)

// BuildBenchRow measures construction and decode for one benchmark:
// wall-clock times for the Build, the faster of two, and for decoding the
// persisted file. Serialized to BENCH_build.json; the host facts say what
// the timings were measured on.
type BuildBenchRow struct {
	Name       string  `json:"name"`
	Scale      float64 `json:"scale"`
	Gomaxprocs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Pointers   int     `json:"pointers"`
	Objects    int     `json:"objects"`
	Facts      int     `json:"facts"`
	PesBytes   int64   `json:"pes_bytes"`

	BuildNS  int64 `json:"build_ns"`
	DecodeNS int64 `json:"decode_ns"`

	// Zero-copy PES2 columns: the same index persisted as page-aligned
	// columns, opened cold from a real file via mmap. The speedup compares
	// the cold open against the PES1 decode — the two ways a process can
	// go from file to first answered query. ColdOpenV2NS is the first open
	// of the freshly-written file; WarmOpenV2NS is the fastest
	// of several re-opens of the same file, i.e. with the page cache and
	// allocator warm — the gap between them is what madvise-style readahead
	// hints can recover without dropping caches.
	PesV2Bytes    int64   `json:"pes_v2_bytes"`
	ColdOpenV2NS  int64   `json:"cold_open_v2_ns"`
	WarmOpenV2NS  int64   `json:"warm_open_v2_ns"`
	V2OpenSpeedup float64 `json:"v2_open_speedup"`
	V2Identical   bool    `json:"v2_identical"` // mapped answers spot-checked against decoded
}

// BuildBench runs the construction/decode experiment: every preset is
// built twice, timing the faster build (a process's first build also pays
// for faulting in a fresh heap), and its persisted file is decoded once.
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

	start := time.Now()
	decoded, err := core.Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		panic(err)
	}
	row.DecodeNS = time.Since(start).Nanoseconds()

	benchV2(decoded, &row)
	return row
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
	row.V2OpenSpeedup = nsRatio(row.DecodeNS, row.ColdOpenV2NS)

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

func nsRatio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RenderBuildBench renders BuildBench rows as text.
func RenderBuildBench(rows []BuildBenchRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Build bench: construction and decode (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-12s | %10s | %10s | %10s %10s %7s | %s\n",
		"program", "build", "decode", "v2-cold", "v2-warm", "speedup", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %8.1fms | %8.1fms | %8.3fms %8.3fms %6.0f× | %v\n",
			r.Name,
			float64(r.BuildNS)/1e6,
			float64(r.DecodeNS)/1e6,
			float64(r.ColdOpenV2NS)/1e6, float64(r.WarmOpenV2NS)/1e6, r.V2OpenSpeedup,
			r.V2Identical)
	}
	return b.String()
}

// WriteBuildBenchJSON writes BuildBench rows as indented JSON.
func WriteBuildBenchJSON(w io.Writer, rows []BuildBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
