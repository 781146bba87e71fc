// Command ptagen produces points-to matrices (.ptm): either synthetically
// from the paper's Table 2 benchmark presets, or by running the
// Andersen-style analysis on a pointer-IR program.
//
// Usage:
//
//	ptagen preset -name fop -scale 0.01 -out fop.ptm
//	ptagen analyze -ir prog.ir -clone 1 -out prog.ptm [-names prog.names]
//	ptagen random -funcs 20 -vars 8 -stmts 30 -seed 7 -out prog.ir
//	ptagen random -preset anders-web -out prog.ir
//	ptagen mutate -preset fop -steps 5 -out dir/fop [-final-ptm fop5.ptm]
//	ptagen list
//
// mutate encodes a base matrix to dir/fop.pes and then replays a
// deterministic edit stream over it (see internal/synth.EditStream),
// emitting one stamped delta segment per step next to the base — the
// reproducible incremental workload for pestrie's delta, compact, and
// store-refresh paths. Same seed, same flags: byte-identical files.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pestrie"
	"pestrie/internal/delta"
	"pestrie/internal/ir"
	"pestrie/internal/perf"
	"pestrie/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "preset":
		err = preset(os.Args[2:])
	case "analyze":
		err = analyze(os.Args[2:])
	case "random":
		err = random(os.Args[2:])
	case "import":
		err = importFacts(os.Args[2:])
	case "mutate":
		err = mutate(os.Args[2:])
	case "list":
		err = list()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptagen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ptagen <preset|analyze|random|import|mutate|list> [flags]")
	os.Exit(2)
}

// importFacts converts a textual points-to dump ("pointer object" per
// line, as exported by external analyses) into a matrix file, optionally
// recording the name↔ID tables.
func importFacts(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("in", "", "input facts file (pointer object per line)")
	out := fs.String("out", "", "output matrix file (.ptm)")
	names := fs.String("names", "", "optional output file mapping IDs to names")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("import needs -in and -out")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	facts, err := pestrie.ReadFactsText(f)
	f.Close()
	if err != nil {
		return err
	}
	if *names != "" {
		nf, err := os.Create(*names)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(nf)
		for i, n := range facts.PointerNames {
			fmt.Fprintf(w, "P %d %s\n", i, n)
		}
		for i, n := range facts.ObjectNames {
			fmt.Fprintf(w, "O %d %s\n", i, n)
		}
		if err := w.Flush(); err != nil {
			nf.Close()
			return err
		}
		if err := nf.Close(); err != nil {
			return err
		}
	}
	return writeMatrix(facts.PM, *out)
}

func writeMatrix(pm *pestrie.Matrix, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := pm.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d pointers × %d objects, %d facts (%s)\n",
		path, pm.NumPointers, pm.NumObjects, pm.Edges(), perf.Bytes(st.Size()))
	return nil
}

func preset(args []string) error {
	fs := flag.NewFlagSet("preset", flag.ExitOnError)
	name := fs.String("name", "", "preset name (see: ptagen list)")
	scale := fs.Float64("scale", 0.01, "scale factor vs the paper's sizes")
	out := fs.String("out", "", "output matrix file (.ptm)")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("preset needs -name and -out")
	}
	b := pestrie.BenchmarkByName(*name)
	if b == nil {
		return fmt.Errorf("unknown preset %q (try: ptagen list)", *name)
	}
	return writeMatrix(b.Generate(*scale), *out)
}

func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	irPath := fs.String("ir", "", "pointer-IR source file")
	clone := fs.Int("clone", 0, "k-callsite cloning depth (0 = context-insensitive)")
	out := fs.String("out", "", "output matrix file (.ptm)")
	names := fs.String("names", "", "optional output file mapping IDs to IR names")
	fs.Parse(args)
	if *irPath == "" || *out == "" {
		return fmt.Errorf("analyze needs -ir and -out")
	}
	f, err := os.Open(*irPath)
	if err != nil {
		return err
	}
	prog, err := pestrie.ParseProgram(f)
	f.Close()
	if err != nil {
		return err
	}
	for _, w := range prog.Warnings {
		fmt.Fprintf(os.Stderr, "ptagen: warning: %s\n", w)
	}
	var res *pestrie.AnalysisResult
	dur := perf.Time(func() { res, err = pestrie.Analyze(prog, *clone) })
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("analyzed %d statements in %s: %d constraints over %d vars, cycles merged %d, %d rounds\n",
		prog.NumStmts(), dur, st.Constraints, st.Vars, st.CycleMerged, st.Rounds)
	if *names != "" {
		if err := writeNames(res, *names); err != nil {
			return err
		}
	}
	return writeMatrix(res.PM, *out)
}

// writeNames dumps "P <id> <name>" and "O <id> <name>" lines — the
// variable-correlation table of §6.2 that keeps IDs stable across analysis
// cycles.
func writeNames(res *pestrie.AnalysisResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, n := range res.PointerNames {
		fmt.Fprintf(w, "P %d %s\n", i, n)
	}
	for i, n := range res.ObjectNames {
		fmt.Fprintf(w, "O %d %s\n", i, n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func random(args []string) error {
	fs := flag.NewFlagSet("random", flag.ExitOnError)
	funcs := fs.Int("funcs", 10, "number of functions")
	vars := fs.Int("vars", 6, "variables per function")
	stmts := fs.Int("stmts", 20, "statements per function")
	seed := fs.Int64("seed", 1, "generator seed")
	chain := fs.Int("chain", 0, "depth of the deterministic call chain (0 = none)")
	lsw := fs.Int("lsweight", 1, "load/store statement weight (>= 2 densifies dereferences)")
	preset := fs.String("preset", "", "program preset name overriding the shape flags (see: ptagen list)")
	out := fs.String("out", "", "output IR file")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("random needs -out")
	}
	opts := ir.GenOptions{
		Funcs: *funcs, VarsPerFunc: *vars, StmtsPerFunc: *stmts, Seed: *seed,
		ChainDepth: *chain, LoadStoreWeight: *lsw,
	}
	if *preset != "" {
		p := ir.ProgPresetByName(*preset)
		if p == nil {
			return fmt.Errorf("unknown program preset %q (try: ptagen list)", *preset)
		}
		opts = p.Opts
	}
	prog := ir.Generate(opts)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := prog.Print(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d functions, %d statements\n", *out, len(prog.Funcs), prog.NumStmts())
	return nil
}

// mutate writes a base persistent file plus a deterministic chain of delta
// segments next to it — the incremental-update workload. The base comes
// from a Table 2 preset or an existing .ptm; the edit stream is seeded, so
// the whole file set reproduces bit for bit.
func mutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	presetName := fs.String("preset", "", "base preset name (see: ptagen list)")
	scale := fs.Float64("scale", 0.01, "preset scale factor")
	in := fs.String("in", "", "base matrix file (.ptm) instead of -preset")
	out := fs.String("out", "", "output stem: writes <out>.pes and <out>.dNNNNNN.pesd")
	steps := fs.Int("steps", 5, "delta segments to emit")
	edits := fs.Int("edits", 0, "fact flips per step (0 = 64)")
	seed := fs.Int64("seed", 1, "edit-stream seed")
	addFrac := fs.Float64("add-frac", 0.7, "fraction of edits that add a fact (<= 0 or > 1 = 0.7)")
	growEvery := fs.Int("grow-every", 0, "grow the pointer/object universe every Nth step (0 = never)")
	growPointers := fs.Int("grow-pointers", 0, "pointers added per growth step (0 = 8)")
	growObjects := fs.Int("grow-objects", 0, "objects added per growth step (0 = 4)")
	v2 := fs.Bool("v2", false, "write the base in the zero-copy PES2 format")
	finalPTM := fs.String("final-ptm", "", "also write the matrix after the last step (compaction oracle)")
	fs.Parse(args)
	if (*presetName == "") == (*in == "") || *out == "" {
		return fmt.Errorf("mutate needs exactly one of -preset/-in, plus -out")
	}
	if *steps <= 0 {
		return fmt.Errorf("mutate needs -steps >= 1")
	}
	var pm *pestrie.Matrix
	if *presetName != "" {
		b := pestrie.BenchmarkByName(*presetName)
		if b == nil {
			return fmt.Errorf("unknown preset %q (try: ptagen list)", *presetName)
		}
		pm = b.Generate(*scale)
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		var rerr error
		pm, rerr = pestrie.ReadMatrix(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
	}
	basePath := *out + ".pes"
	trie := pestrie.Build(pm, nil)
	if *v2 {
		if err := pestrie.WriteFileV2(trie.Index(), basePath); err != nil {
			return err
		}
	} else if err := pestrie.WriteFile(trie, basePath); err != nil {
		return err
	}
	hint, err := delta.FileHint(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("base: %s (%d pointers × %d objects, %d facts, hint %016x)\n",
		basePath, pm.NumPointers, pm.NumObjects, pm.Edges(), hint)
	es := synth.NewEditStream(pm, synth.EditConfig{
		Seed:         *seed,
		EditsPerStep: *edits,
		AddFrac:      *addFrac,
		GrowEvery:    *growEvery,
		GrowPointers: *growPointers,
		GrowObjects:  *growObjects,
		BaseHint:     hint,
	})
	for i := 0; i < *steps; i++ {
		seg := es.Next()
		path := delta.SegmentPath(basePath, seg.Gen)
		if err := delta.WriteSegmentFile(path, seg); err != nil {
			return err
		}
		adds, dels := seg.Counts()
		fmt.Printf("segment: %s (generation %d, +%d -%d facts, %d pointers × %d objects)\n",
			path, seg.Gen, adds, dels, seg.NumPointers, seg.NumObjects)
	}
	if *finalPTM != "" {
		return writeMatrix(es.Matrix(), *finalPTM)
	}
	return nil
}

func list() error {
	fmt.Printf("%-12s %-5s %-24s %10s %9s\n", "name", "lang", "analysis", "#pointers", "#objects")
	for _, b := range pestrie.Benchmarks() {
		fmt.Printf("%-12s %-5s %-24s %10d %9d\n",
			b.Name, b.Language, b.Analysis.String(), b.Pointers, b.Objects)
	}
	fmt.Printf("\nprogram presets (ptagen random -preset <name>):\n")
	for _, p := range ir.ProgPresets {
		fmt.Printf("%-14s %s\n", p.Name, p.Desc)
	}
	return nil
}
