package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"pestrie/internal/anders"
	"pestrie/internal/ir"
)

// AndersBenchRow measures the Andersen constraint engine on one program
// preset: constraint-system dimensions, what cycle collapsing removed, and
// the solve wall-clock. Serialized to BENCH_anders.json; the host facts
// say what the timings were measured on.
type AndersBenchRow struct {
	Name        string `json:"name"`
	Funcs       int    `json:"funcs"`
	Stmts       int    `json:"stmts"`
	Vars        int    `json:"vars"`
	Objects     int    `json:"objects"`
	Constraints int    `json:"constraints"`
	MatrixFacts int    `json:"matrix_facts"`
	Gomaxprocs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`

	CycleMerged int `json:"cycle_merged_vars"`
	Rounds      int `json:"rounds"`

	SolveNS           int64   `json:"solve_ns"` // the faster of two solves
	ConstraintsPerSec float64 `json:"constraints_per_sec"`
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
// presets.
func AndersBench(opts *Options) []AndersBenchRow {
	var rows []AndersBenchRow
	for _, p := range andersPresets(opts) {
		rows = append(rows, andersBenchOne(p))
	}
	return rows
}

func andersBenchOne(p ir.ProgPreset) AndersBenchRow {
	prog := ir.Generate(p.Opts)
	row := AndersBenchRow{
		Name:       p.Name,
		Funcs:      len(prog.Funcs),
		Stmts:      prog.NumStmts(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}

	// The solve is timed as the better of two, so it is not billed for
	// faulting in a fresh heap or for lazy runtime initialisation.
	runtime.GC() // don't bill the solve for its predecessor's garbage
	var res *anders.Result
	row.SolveNS = bestOf2(func() {
		var err error
		if res, err = anders.Analyze(prog, nil); err != nil {
			panic(err)
		}
	})

	st := res.Stats
	row.Vars = st.Vars
	row.Objects = st.Objects
	row.Constraints = st.Constraints
	row.MatrixFacts = res.PM.Edges()
	row.CycleMerged = st.CycleMerged
	row.Rounds = st.Rounds
	if row.SolveNS > 0 {
		row.ConstraintsPerSec = float64(st.Constraints) / (float64(row.SolveNS) / 1e9)
	}
	return row
}

// RenderAndersBench renders AndersBench rows as text.
func RenderAndersBench(rows []AndersBenchRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Anders bench: constraint solving (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-14s | %8s %6s | %10s | %11s\n",
		"preset", "cons", "cyc", "solve", "cons/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s | %8d %6d | %8.1fms | %11.0f\n",
			r.Name, r.Constraints, r.CycleMerged,
			float64(r.SolveNS)/1e6, r.ConstraintsPerSec)
	}
	return b.String()
}

// WriteAndersBenchJSON writes AndersBench rows as indented JSON.
func WriteAndersBenchJSON(w io.Writer, rows []AndersBenchRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
