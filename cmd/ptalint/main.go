// Command ptalint runs the static-analysis client suite — race, leak,
// taint-reaches-sink, null-dereference, and use-after-free checkers — over
// a pointer-IR program, answering every alias question from persisted
// pointer information. This is the paper's pipelined-bug-detection
// scenario (§1, scenario 1) as a tool: pay for the points-to analysis
// once, persist it, then run any number of checkers off the same file.
//
// Usage:
//
//	ptalint -ir prog.ir                         # analyze + all five checkers
//	ptalint -ir prog.ir -checks taint,uaf       # a subset
//	ptalint -ir prog.ir -pes prog.pes           # query a persisted Pestrie file
//	ptalint -ir prog.ir -pes prog.pes -incremental  # re-check only the dirtied region
//	ptalint -ir prog.ir -backend demand         # demand-driven baseline oracle
//
// Findings are printed to stdout, one per line, deterministically sorted —
// byte-identical across backends and across runs. Lint warnings from the
// IR validator and the summary count go to stderr.
//
// -incremental reads the delta chain next to -pes (written by pestrie
// delta): the per-function checkers re-run only over the functions owning
// a pointer the chain dirtied — the aliasing closure of the edited rows —
// while unchanged functions keep their base-generation findings, and the
// whole-program checkers (leak, taint) re-run globally. The printed
// listing is identical to a full run at the chain head; the scope note on
// stderr says how much work that took.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pestrie"
	"pestrie/internal/anders"
	"pestrie/internal/clients"
	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/demand"
	"pestrie/internal/ir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ptalint:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ptalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	irPath := fs.String("ir", "", "pointer-IR source file (required)")
	checks := fs.String("checks", "all", "comma-separated checks to run: "+strings.Join(clients.CheckNames, ",")+", or all")
	backend := fs.String("backend", "pestrie", "query backend: pestrie | demand")
	pesPath := fs.String("pes", "", "persisted Pestrie file to query (pestrie backend); built in memory when empty")
	clone := fs.Int("clone", 0, "k-callsite cloning depth (0 = context-insensitive)")
	roots := fs.String("roots", "main", "function whose locals form the leak checker's root set")
	incremental := fs.Bool("incremental", false, "apply the delta chain next to -pes and re-check only the dirtied region")
	noWarn := fs.Bool("no-warn", false, "suppress IR lint warnings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *irPath == "" {
		return fmt.Errorf("ptalint needs -ir (see -h)")
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
	if !*noWarn {
		for _, w := range prog.Warnings {
			fmt.Fprintf(stderr, "ptalint: warning: %s\n", w)
		}
	}

	res, err := anders.Analyze(prog, &anders.Options{CloneDepth: *clone})
	if err != nil {
		return err
	}

	names := clients.CheckNames
	if *checks != "all" && *checks != "" {
		names = strings.Split(*checks, ",")
	}

	if *incremental {
		if *backend != "pestrie" || *pesPath == "" {
			return fmt.Errorf("-incremental needs -pes with the pestrie backend")
		}
		return runIncremental(prog, res, *pesPath, names, *roots, stdout, stderr)
	}

	var q clients.Queries
	switch *backend {
	case "pestrie":
		if *pesPath != "" {
			idx, err := pestrie.LoadFile(*pesPath)
			if err != nil {
				return err
			}
			if idx.NumPointers != res.PM.NumPointers || idx.NumObjects != res.PM.NumObjects {
				return fmt.Errorf("%s holds a %d×%d matrix but %s analyzes to %d×%d — stale persisted file?",
					*pesPath, idx.NumPointers, idx.NumObjects, *irPath, res.PM.NumPointers, res.PM.NumObjects)
			}
			q = idx
		} else {
			q = core.Build(res.PM, nil).Index()
		}
	case "demand":
		if *pesPath != "" {
			return fmt.Errorf("-pes only applies to the pestrie backend")
		}
		q = demand.New(res.PM)
	default:
		return fmt.Errorf("unknown backend %q (pestrie | demand)", *backend)
	}

	findings, err := clients.Run(prog, res, q, names, *roots)
	if err != nil {
		return err
	}
	for _, fd := range findings {
		fmt.Fprintln(stdout, fd)
	}
	fmt.Fprintf(stderr, "ptalint: %d finding(s) from %d statement(s)\n", len(findings), prog.NumStmts())
	return nil
}

// runIncremental answers the checkers from the delta chain next to pesPath:
// a full (cheap) run at the base generation keeps the findings of clean
// functions, and a scoped run at the chain head re-checks just the dirtied
// region. The merged listing is identical to a full run at the head.
func runIncremental(prog *ir.Program, res *anders.Result, pesPath string, names []string, roots string, stdout, stderr io.Writer) error {
	head, chain, err := delta.Open(pesPath)
	if err != nil {
		return err
	}
	defer head.Close()
	if chain.Broken != "" {
		fmt.Fprintf(stderr, "ptalint: warning: chain stops early: %s\n", chain.Broken)
	}
	if head.Pointers() != res.PM.NumPointers || head.Objects() != res.PM.NumObjects {
		return fmt.Errorf("%s at generation %d holds a %d×%d matrix but the program analyzes to %d×%d — stale persisted file?",
			pesPath, head.Generation(), head.Pointers(), head.Objects(), res.PM.NumPointers, res.PM.NumObjects)
	}
	affected := head.AffectedPointers()
	sc, err := clients.RunScoped(prog, res, head, names, roots, affected)
	if err != nil {
		return err
	}
	prev, err := clients.Run(prog, res, head.Base(), names, roots)
	if err != nil {
		return err
	}
	findings := sc.Merge(prev)
	for _, fd := range findings {
		fmt.Fprintln(stdout, fd)
	}
	fmt.Fprintf(stderr, "ptalint: incremental at generation %d (%d segment(s)): %d dirty pointer(s), %d affected, %d/%d dirty function(s)\n",
		head.Generation(), head.Chain(), len(head.DirtyPointers()), len(affected), len(sc.Dirty), len(prog.Funcs))
	fmt.Fprintf(stderr, "ptalint: %d finding(s) from %d statement(s)\n", len(findings), prog.NumStmts())
	return nil
}
