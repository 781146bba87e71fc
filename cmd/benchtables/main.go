// Command benchtables regenerates the paper's evaluation tables and
// figures over the scaled benchmark presets (see DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	benchtables -table all
//	benchtables -table 7 -presets antlr,chart -scale 0.01
//	benchtables -table fig7 -scale 0.005
//	benchtables -table build -presets fop -scale 0.05 -json BENCH_build.json
//	benchtables -table anders -json BENCH_anders.json
//
// Tables: 2, fig1, 7, 8, fig7, ablation, build, all, plus anders (run
// only when named — it measures the constraint engine, not a paper
// table). The build experiment measures construction and decode (see
// internal/exper's BuildBench); the anders experiment measures constraint
// solving over the program presets (`ptagen list`). -json additionally
// writes the experiment's rows as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pestrie/internal/exper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	table := fs.String("table", "all", "which experiment: 2 | fig1 | 7 | 8 | fig7 | ablation | build | anders | all")
	scale := fs.Float64("scale", 0.01, "benchmark scale vs the paper's sizes")
	presets := fs.String("presets", "", "comma-separated preset names (default: all 12)")
	stride := fs.Int("stride", 0, "base-pointer stride (0 = auto ≈1000 base pointers)")
	jsonOut := fs.String("json", "", "also write the build/anders experiment's rows as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := &exper.Options{Scale: *scale, BaseStride: *stride}
	if *presets != "" {
		opts.Presets = strings.Split(*presets, ",")
	}

	writeJSON := func(write func(io.Writer) error) error {
		if *jsonOut == "" {
			return nil
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	buildBench := func(o *exper.Options) (string, error) {
		rows := exper.BuildBench(o)
		if err := writeJSON(func(w io.Writer) error { return exper.WriteBuildBenchJSON(w, rows) }); err != nil {
			return "", err
		}
		return exper.RenderBuildBench(rows), nil
	}
	andersBench := func(o *exper.Options) (string, error) {
		rows := exper.AndersBench(o)
		if err := writeJSON(func(w io.Writer) error { return exper.WriteAndersBenchJSON(w, rows) }); err != nil {
			return "", err
		}
		return exper.RenderAndersBench(rows), nil
	}

	experiments := []struct {
		key, name string
		fn        func(*exper.Options) (string, error)
	}{
		{"2", "table 2", func(o *exper.Options) (string, error) { return exper.RenderTable2(exper.Table2(o)), nil }},
		{"fig1", "figure 1", func(o *exper.Options) (string, error) { return exper.RenderFigure1(exper.Figure1(o)), nil }},
		{"7", "table 7", func(o *exper.Options) (string, error) { return exper.RenderTable7(exper.Table7(o)), nil }},
		{"8", "table 8", func(o *exper.Options) (string, error) { return exper.RenderTable8(exper.Table8(o)), nil }},
		{"fig7", "figure 7", func(o *exper.Options) (string, error) { return exper.RenderFigure7(exper.Figure7(o)), nil }},
		{"ablation", "ablations", func(o *exper.Options) (string, error) { return exper.RenderAblations(exper.Ablations(o)), nil }},
		{"build", "build bench", buildBench},
		{"anders", "anders bench", andersBench},
	}
	any := false
	for _, e := range experiments {
		// "all" covers the paper tables; the engine bench runs only when
		// asked for by name.
		if *table != e.key && !(*table == "all" && e.key != "anders") {
			continue
		}
		any = true
		start := time.Now()
		out, err := e.fn(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		fmt.Fprintf(w, "[%s regenerated in %s]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !any {
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}
