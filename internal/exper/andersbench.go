package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"

	"pestrie/internal/anders"
	"pestrie/internal/ir"
	"pestrie/internal/par"
)

// AndersBenchRow measures the Andersen constraint engine on one program
// preset: constraint-system dimensions, what cycle collapsing removed,
// solve wall-clock at -j1 vs -jN, and the matrix-identity check the engine
// guarantees across them.
// Serialized to BENCH_anders.json. The host facts say what the timings
// were measured on; the parallel speedup is null when GOMAXPROCS is below
// Workers, since such a run measures time slicing, not parallelism.
type AndersBenchRow struct {
	Name        string `json:"name"`
	Funcs       int    `json:"funcs"`
	Stmts       int    `json:"stmts"`
	Vars        int    `json:"vars"`
	Objects     int    `json:"objects"`
	Constraints int    `json:"constraints"`
	MatrixFacts int    `json:"matrix_facts"`
	Workers     int    `json:"workers"` // resolved pool size of the parallel run
	Gomaxprocs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`

	CycleMerged int `json:"cycle_merged_vars"`
	Rounds      int `json:"rounds"`

	SolveSerialNS   int64    `json:"solve_serial_ns"`
	SolveParallelNS int64    `json:"solve_parallel_ns"`
	ParallelSpeedup *float64 `json:"parallel_speedup"`

	ConstraintsPerSec float64 `json:"constraints_per_sec"` // at -jN

	// MatrixIdentical confirms the -j1 and -jN runs produced the same
	// matrix and name tables. The harness panics if they ever differ.
	MatrixIdentical bool `json:"matrix_identical"`
}

// andersPresets resolves opts.Presets against the program presets,
// ignoring names that belong to other experiments (the Table 2 matrix
// presets); an empty selection falls back to every program preset.
func andersPresets(opts *Options) []ir.ProgPreset {
	if opts != nil && len(opts.Presets) > 0 {
		var out []ir.ProgPreset
		for _, name := range opts.Presets {
			if p := ir.ProgPresetByName(name); p != nil {
				out = append(out, *p)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return ir.ProgPresets
}

// AndersBench runs the constraint-engine experiment over the program
// presets: solve each once per configuration and verify the outputs are
// identical before reporting timings.
func AndersBench(opts *Options) []AndersBenchRow {
	workers := 0
	if opts != nil {
		workers = opts.Workers
	}
	var rows []AndersBenchRow
	for _, p := range andersPresets(opts) {
		rows = append(rows, andersBenchOne(p, workers))
	}
	return rows
}

func andersBenchOne(p ir.ProgPreset, workers int) AndersBenchRow {
	prog := ir.Generate(p.Opts)
	row := AndersBenchRow{
		Name:       p.Name,
		Funcs:      len(prog.Funcs),
		Stmts:      prog.NumStmts(),
		Workers:    par.Workers(workers),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}

	// Every configuration is timed as the better of two solves, so no
	// side is billed for faulting in a fresh heap or for lazy runtime
	// initialisation, whichever runs first.
	solve := func(o anders.Options) (*anders.Result, int64) {
		runtime.GC() // don't bill a run for its predecessor's garbage
		var res *anders.Result
		ns := bestOf2(func() {
			var err error
			if res, err = anders.Analyze(prog, &o); err != nil {
				panic(err)
			}
		})
		return res, ns
	}

	serial, serialNS := solve(anders.Options{Workers: 1})
	parallel, parallelNS := solve(anders.Options{Workers: workers})

	st := serial.Stats
	row.Vars = st.Vars
	row.Objects = st.Objects
	row.Constraints = st.Constraints
	row.MatrixFacts = serial.PM.Edges()
	row.CycleMerged = st.CycleMerged
	row.Rounds = st.Rounds
	row.SolveSerialNS = serialNS
	row.SolveParallelNS = parallelNS
	row.ParallelSpeedup = parallelSpeedup(serialNS, parallelNS, row.Workers)
	if parallelNS > 0 {
		row.ConstraintsPerSec = float64(st.Constraints) / (float64(parallelNS) / 1e9)
	}

	row.MatrixIdentical = sameAnalysis(serial, parallel)
	if !row.MatrixIdentical {
		panic(fmt.Sprintf("%s: -j1 and -j%d results differ", p.Name, row.Workers))
	}
	return row
}

func sameAnalysis(a, b *anders.Result) bool {
	return a.PM.Equal(b.PM) &&
		slices.Equal(a.PointerNames, b.PointerNames) &&
		slices.Equal(a.ObjectNames, b.ObjectNames)
}

// RenderAndersBench renders AndersBench rows as text.
func RenderAndersBench(rows []AndersBenchRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Anders bench: constraint solving, -j1 vs -jN (GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-14s %4s | %8s %6s | %10s %10s %7s | %11s | %s\n",
		"preset", "j", "cons", "cyc",
		"solve-j1", "solve-jN", "speedup", "cons/s", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %4d | %8d %6d | %8.1fms %8.1fms %7s | %11.0f | %v\n",
			r.Name, r.Workers, r.Constraints, r.CycleMerged,
			float64(r.SolveSerialNS)/1e6, float64(r.SolveParallelNS)/1e6, speedupCell(r.ParallelSpeedup),
			r.ConstraintsPerSec, r.MatrixIdentical)
	}
	return b.String()
}

// WriteAndersBenchJSON writes AndersBench rows as indented JSON.
func WriteAndersBenchJSON(w io.Writer, rows []AndersBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
