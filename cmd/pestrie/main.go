// Command pestrie encodes points-to matrices into Pestrie persistent files
// and queries them.
//
// Usage:
//
//	pestrie encode -in pm.ptm -out pm.pes [-v2] [-random-order] [-merge-objects]
//	pestrie info -in pm.pes
//	pestrie query -in pm.pes -op isalias -p 3 -q 7
//	pestrie query -in pm.pes -op aliases|pointsto -p 3 [-at gen|head]
//	pestrie query -in pm.pes -op pointedby -o 5
//	pestrie delta -base pm.pes -new updated.ptm [-out pm.d000001.pesd]
//	pestrie compact -in pm.pes -out pm2.pes [-gen N] [-v2]
//	pestrie serve -in pm.pes[,name=other.pes...] -addr :7171
//	pestrie serve -store-dir ./pes -mem-budget 64MiB -reload-interval 30s
//
// serve answers the four Table-1 queries plus batches over HTTP/JSON (see
// internal/server). pbench (bash pbench/run.sh) load-tests it.
//
// serve catalogs every backend in the managed index store (see
// internal/store). -in entries are decoded at startup, so a broken path
// fails serve; -store-dir files decode lazily on first query. Each serves
// the delta chain beside its file. -mem-budget evicts cold indexes to stay
// under a memory budget, and -reload-interval hot-swaps rewritten files
// and applies new delta segments without a restart. -pprof mounts
// net/http/pprof for profiling the eviction hot path.
//
// encode -v2 writes the zero-copy PES2 format: info, query, and serve
// memory-map such files and answer queries straight off the mapping
// instead of decoding them. Replace a served PES2 file only by rename.
//
// delta diffs the facts a base (plus any delta chain next to it) currently
// serves against an updated matrix and writes the difference as the next
// stamped .pesd segment (see internal/delta and FORMATS.md); a serving
// store picks the segment up on its next refresh without re-decoding the
// base. query -at pins a query to one generation of the chain; info prints
// the chain. compact folds base+chain back into a fresh standalone file,
// byte-identical to encoding the same facts from scratch.
//
// Matrix files (.ptm) are produced by cmd/ptagen.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pestrie"
	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/perf"
	"pestrie/internal/server"
	"pestrie/internal/store"
)

// budgetString renders a store budget for the startup banner.
func budgetString(n int64) string {
	if n <= 0 {
		return "unlimited"
	}
	return perf.Bytes(n)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = encode(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "delta":
		err = deltaCmd(os.Args[2:])
	case "compact":
		err = compact(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pestrie:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pestrie <encode|info|query|verify|delta|compact|serve> [flags]")
	os.Exit(2)
}

// parseInSpec parses the -in specification: a comma-separated list of
// [name=]path.pes entries. An unnamed entry takes its file stem as backend
// name; a single unnamed entry is also reachable as "default" (the
// implicit backend of one-index deployments).
func parseInSpec(spec string) ([]store.Spec, error) {
	entries := strings.Split(spec, ",")
	out := make([]store.Spec, 0, len(entries))
	for _, e := range entries {
		name, path := "", e
		if i := strings.IndexByte(e, '='); i >= 0 {
			name, path = e[:i], e[i+1:]
		}
		if path == "" {
			return nil, fmt.Errorf("serve: empty path in -in entry %q", e)
		}
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			if len(entries) == 1 {
				name = "default"
			}
		}
		out = append(out, store.Spec{Name: name, Path: path})
	}
	return out, nil
}

// newServer builds the server for serve over one store catalog: the -in
// entries, then the -store-dir files. Each -in entry is decoded once here,
// so a broken path fails serve and the error names the entry as
// name=path; -store-dir files decode on first query.
func newServer(spec, dir string, opts server.Options, sopts store.Options) (*server.Server, *store.Store, error) {
	st := store.New(sopts)
	if err := catalog(st, spec, dir); err != nil {
		st.Close()
		return nil, nil, err
	}
	opts.Store = st
	return server.New(opts), st, nil
}

// catalog adds the -in entries and the -store-dir files to st, then
// decodes each -in entry once.
func catalog(st *store.Store, spec, dir string) error {
	var specs []store.Spec
	if spec != "" {
		var err error
		if specs, err = parseInSpec(spec); err != nil {
			return err
		}
	}
	for _, sp := range specs {
		if err := st.Add(sp.Name, sp.Path); err != nil {
			return fmt.Errorf("serve: -in entry %s=%s: %w", sp.Name, sp.Path, err)
		}
	}
	if dir != "" {
		if _, err := st.AddDir(dir); err != nil {
			return err
		}
	}
	for _, sp := range specs {
		h, err := st.Acquire(context.Background(), sp.Name)
		if err != nil {
			return fmt.Errorf("serve: -in entry %s=%s: %w", sp.Name, sp.Path, err)
		}
		h.Release()
	}
	return nil
}

// serveLoop serves s on addr until serving fails or SIGINT/SIGTERM
// arrives, then drains gracefully.
func serveLoop(s *server.Server, addr string) error {
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(addr) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case <-sig:
		fmt.Println("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return err
		}
		<-done
		return nil
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "persistent files to serve: [name=]file.pes, comma-separated")
	addr := fs.String("addr", ":7171", "listen address")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	maxBatch := fs.Int("max-batch", 0, "max queries per batch request (0 = 65536)")
	storeDir := fs.String("store-dir", "", "directory of .pes files served lazily through the index store")
	memBudget := fs.String("mem-budget", "", "decoded-index memory budget for the store, e.g. 64MiB (empty = unlimited)")
	reload := fs.Duration("reload-interval", 0, "checksum poll period for hot-swapping rewritten files (0 = off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.Parse(args)
	if *in == "" && *storeDir == "" {
		return fmt.Errorf("serve needs -in or -store-dir")
	}
	var budget int64
	if *memBudget != "" {
		var err error
		if budget, err = store.ParseBytes(*memBudget); err != nil {
			return err
		}
	}
	s, st, err := newServer(*in, *storeDir, server.Options{
		RequestTimeout: *timeout,
		MaxBatch:       *maxBatch,
		EnablePprof:    *pprofOn,
	}, store.Options{MemBudget: budget, ReloadInterval: *reload})
	if err != nil {
		return err
	}
	defer st.Close()
	names := st.Names()
	fmt.Printf("store: %d catalogued backends (budget %s, reload %s): %s\n",
		len(names), budgetString(budget), *reload, strings.Join(names, " "))
	for _, b := range s.Backends() {
		if b.Loaded {
			fmt.Printf("backend %s: %d pointers, %d objects, %d groups, %d rectangles\n",
				b.Name, b.Pointers, b.Objects, b.Groups, b.Rectangles)
		}
	}
	if *pprofOn {
		fmt.Println("pprof mounted at /debug/pprof/")
	}
	fmt.Printf("serving on %s (timeout %s)\n", *addr, *timeout)
	return serveLoop(s, *addr)
}

// readMatrixFile loads a .ptm matrix file.
func readMatrixFile(path string) (*pestrie.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pestrie.ReadMatrix(f)
}

// deltaCmd diffs the facts the base (plus its on-disk delta chain)
// currently serves against an updated matrix and writes the difference as
// the next stamped segment. The base file is never rewritten — a serving
// store applies the new segment on its next refresh.
func deltaCmd(args []string) error {
	fs := flag.NewFlagSet("delta", flag.ExitOnError)
	base := fs.String("base", "", "served base file (.pes) the segment chains onto")
	newPM := fs.String("new", "", "matrix file (.ptm) holding the updated facts")
	out := fs.String("out", "", "output segment path (default: the next stamp next to -base)")
	fs.Parse(args)
	if *base == "" || *newPM == "" {
		return fmt.Errorf("delta needs -base and -new")
	}
	chain, err := delta.LoadChain(*base)
	if err != nil {
		return err
	}
	if chain.Broken != "" {
		// Appending past a broken link would stamp a segment discovery can
		// never reach; make the operator clean up (or compact) first.
		return fmt.Errorf("delta: chain next to %s is broken (%s); remove the stale segments or compact first", *base, chain.Broken)
	}
	idx, err := pestrie.OpenFile(*base)
	if err != nil {
		return err
	}
	defer idx.Close()
	cur, err := delta.MatrixAt(idx, chain.Segs, chain.Head())
	if err != nil {
		return err
	}
	next, err := readMatrixFile(*newPM)
	if err != nil {
		return err
	}
	seg, err := delta.Diff(cur, next)
	if err != nil {
		return err
	}
	if seg == nil {
		fmt.Printf("no changes: generation %d of %s already holds the facts of %s\n",
			chain.Head(), *base, *newPM)
		return nil
	}
	seg.Gen = chain.Head() + 1
	seg.Parent = chain.Head()
	seg.BaseHint = chain.Hint
	path := *out
	if path == "" {
		path = delta.SegmentPath(*base, seg.Gen)
	}
	if err := delta.WriteSegmentFile(path, seg); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	adds, dels := seg.Counts()
	fmt.Printf("segment: %s (generation %d on %d, +%d -%d facts, %d pointers × %d objects, %s)\n",
		path, seg.Gen, seg.Parent, adds, dels, seg.NumPointers, seg.NumObjects, perf.Bytes(st.Size()))
	return nil
}

// compact folds a base and its delta chain back into a standalone
// persistent file. Because RecoverMatrix inverts the base exactly, replay
// is strict, and core.Build is deterministic, the output is byte-identical
// to encoding the same facts from scratch with the same options — which is
// what CI checks.
func compact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	in := fs.String("in", "", "base file (.pes) whose delta chain to fold in")
	out := fs.String("out", "", "output persistent file (.pes)")
	gen := fs.Uint64("gen", 0, "generation to compact through (0 = chain head)")
	mergeObjects := fs.Bool("merge-objects", false, "merge equivalent objects into shared origins")
	noPrune := fs.Bool("no-prune", false, "disable Theorem-2 rectangle pruning")
	v2 := fs.Bool("v2", false, "write the zero-copy PES2 format")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compact needs -in and -out")
	}
	chain, err := delta.LoadChain(*in)
	if err != nil {
		return err
	}
	if chain.Broken != "" {
		fmt.Fprintf(os.Stderr, "pestrie: warning: chain stops early: %s\n", chain.Broken)
	}
	g := *gen
	if g == 0 {
		g = chain.Head()
	}
	idx, err := pestrie.OpenFile(*in)
	if err != nil {
		return err
	}
	defer idx.Close()
	opts := &core.Options{MergeEquivalentObjects: *mergeObjects, DisablePruning: *noPrune}
	var trie *pestrie.Trie
	var cerr error
	dur := perf.Time(func() { trie, cerr = delta.Compact(idx, chain.Segs, g, opts) })
	if cerr != nil {
		return cerr
	}
	format := "PES1"
	if *v2 {
		format = "PES2"
		if err := pestrie.WriteFileV2(trie.Index(), *out); err != nil {
			return err
		}
	} else if err := pestrie.WriteFile(trie, *out); err != nil {
		return err
	}
	folded := 0
	for _, s := range chain.Segs {
		if s.Gen <= g {
			folded++
		}
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s through generation %d (%d segments folded) in %s\n", *in, g, folded, dur)
	fmt.Printf("file: %s (%s, %s)\n", *out, format, perf.Bytes(st.Size()))
	return nil
}

// verify recovers the full points-to matrix from a persistent file and
// checks it against the original matrix — an end-to-end losslessness check
// for the encoding pipeline.
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	pes := fs.String("pes", "", "persistent file (.pes)")
	ptm := fs.String("ptm", "", "original matrix file (.ptm)")
	fs.Parse(args)
	if *pes == "" || *ptm == "" {
		return fmt.Errorf("verify needs -pes and -ptm")
	}
	idx, err := pestrie.LoadFile(*pes)
	if err != nil {
		return err
	}
	f, err := os.Open(*ptm)
	if err != nil {
		return err
	}
	pm, err := pestrie.ReadMatrix(f)
	f.Close()
	if err != nil {
		return err
	}
	var recovered *pestrie.Matrix
	dur := perf.Time(func() { recovered = idx.RecoverMatrix() })
	if !recovered.Equal(pm) {
		return fmt.Errorf("MISMATCH: %s does not losslessly encode %s", *pes, *ptm)
	}
	fmt.Printf("OK: %s losslessly encodes %s (%d facts, recovered in %s)\n",
		*pes, *ptm, pm.Edges(), dur)
	return nil
}

func encode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input matrix file (.ptm)")
	facts := fs.String("facts", "", "input text facts file (pointer object per line) instead of -in")
	out := fs.String("out", "", "output persistent file (.pes)")
	randomOrder := fs.Bool("random-order", false, "use a random object order instead of the hub-degree heuristic")
	seed := fs.Int64("seed", 1, "seed for -random-order")
	mergeObjects := fs.Bool("merge-objects", false, "merge equivalent objects into shared origins")
	noPrune := fs.Bool("no-prune", false, "disable Theorem-2 rectangle pruning")
	v2 := fs.Bool("v2", false, "write the zero-copy PES2 format (memory-mapped by readers; larger than PES1 but opens without a decode)")
	fs.Parse(args)
	if (*in == "") == (*facts == "") || *out == "" {
		return fmt.Errorf("encode needs exactly one of -in/-facts, plus -out")
	}
	var pm *pestrie.Matrix
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		pm, err = pestrie.ReadMatrix(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*facts)
		if err != nil {
			return err
		}
		fa, err := pestrie.ReadFactsText(f)
		f.Close()
		if err != nil {
			return err
		}
		pm = fa.PM
	}
	opts := &core.Options{MergeEquivalentObjects: *mergeObjects, DisablePruning: *noPrune}
	if *randomOrder {
		opts.Order = rand.New(rand.NewSource(*seed)).Perm(pm.NumObjects)
	}
	var trie *pestrie.Trie
	dur := perf.Time(func() { trie = pestrie.Build(pm, opts) })
	format := "PES1"
	if *v2 {
		format = "PES2"
		if err := pestrie.WriteFileV2(trie.Index(), *out); err != nil {
			return err
		}
	} else if err := pestrie.WriteFile(trie, *out); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	s := trie.Stats()
	fmt.Printf("encoded %d pointers × %d objects in %s\n", pm.NumPointers, pm.NumObjects, dur)
	fmt.Printf("groups=%d tree-edges=%d cross-edges=%d rectangles=%d (pruned %d)\n",
		s.Groups, s.TreeEdges, s.CrossEdges, s.Rectangles, s.Pruned)
	fmt.Printf("file: %s (%s, %s)\n", *out, format, perf.Bytes(st.Size()))
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "persistent file (.pes)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info needs -in")
	}
	var idx *pestrie.Index
	var err error
	dur := perf.Time(func() { idx, err = core.OpenFile(*in) })
	if err != nil {
		return err
	}
	defer idx.Close()
	format := "PES1"
	if idx.Mapped() {
		format = "PES2"
	}
	fmt.Printf("format=%s pointers=%d objects=%d groups=%d rectangles=%d\n",
		format, idx.NumPointers, idx.NumObjects, idx.NumGroups, idx.Rectangles())
	if idx.Mapped() {
		fmt.Printf("open time: %s, mapped zero-copy: %s\n", dur, perf.Bytes(idx.MemoryFootprint()))
	} else {
		fmt.Printf("decode time: %s, query structure: %s\n", dur, perf.Bytes(idx.MemoryFootprint()))
	}
	// Delta chain next to the base, if any: one line per segment plus the
	// head stamp queries would answer at.
	chain, err := delta.LoadChain(*in)
	if err != nil {
		return err
	}
	for i, seg := range chain.Segs {
		adds, dels := seg.Counts()
		fmt.Printf("delta %s: generation %d on %d, +%d -%d facts, %d pointers × %d objects\n",
			filepath.Base(chain.Paths[i]), seg.Gen, seg.Parent, adds, dels,
			seg.NumPointers, seg.NumObjects)
	}
	if len(chain.Segs) > 0 {
		fmt.Printf("chain: %d segments, head generation %d\n", len(chain.Segs), chain.Head())
	}
	if chain.Broken != "" {
		fmt.Printf("chain stops early: %s\n", chain.Broken)
	}
	return nil
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "persistent file (.pes)")
	op := fs.String("op", "isalias", "isalias | aliases | pointsto | pointedby")
	p := fs.Int("p", -1, "pointer ID")
	q := fs.Int("q", -1, "second pointer ID (isalias)")
	o := fs.Int("o", -1, "object ID (pointedby)")
	at := fs.String("at", "", `generation to answer at: a stamp, or "head" for the newest delta segment (default: the base alone, ignoring any chain)`)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("query needs -in")
	}
	var idx delta.Index
	if *at == "" {
		base, err := pestrie.OpenFile(*in)
		if err != nil {
			return err
		}
		defer base.Close()
		idx = base
	} else {
		g := uint64(math.MaxUint64)
		if *at != "head" {
			var err error
			if g, err = strconv.ParseUint(*at, 10, 64); err != nil {
				return fmt.Errorf("query: -at wants a generation stamp or \"head\", got %q", *at)
			}
		}
		sn, chain, err := delta.OpenAt(*in, g)
		if err != nil {
			return err
		}
		defer sn.Close()
		if chain.Broken != "" {
			fmt.Fprintf(os.Stderr, "pestrie: warning: chain stops early: %s\n", chain.Broken)
		}
		fmt.Printf("at generation %d (chain of %d)\n", sn.Generation(), len(chain.Segs))
		idx = sn
	}
	printList := func(xs []int) {
		sort.Ints(xs)
		fmt.Println(len(xs), "results:", xs)
	}
	// Out-of-range IDs are hard errors, not empty result sets: a silent
	// empty answer for pointer 10^6 against a 10^3-pointer file hides the
	// mismatch between the file and whatever produced the ID.
	checkPointer := func(name string, v int) error {
		if v >= idx.Pointers() {
			return fmt.Errorf("-%s %d out of range: %s has pointers 0..%d", name, v, *in, idx.Pointers()-1)
		}
		return nil
	}
	switch *op {
	case "isalias":
		if *p < 0 || *q < 0 {
			return fmt.Errorf("isalias needs -p and -q")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		if err := checkPointer("q", *q); err != nil {
			return err
		}
		fmt.Println(idx.IsAlias(*p, *q))
	case "aliases":
		if *p < 0 {
			return fmt.Errorf("aliases needs -p")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		printList(idx.ListAliases(*p))
	case "pointsto":
		if *p < 0 {
			return fmt.Errorf("pointsto needs -p")
		}
		if err := checkPointer("p", *p); err != nil {
			return err
		}
		printList(idx.ListPointsTo(*p))
	case "pointedby":
		if *o < 0 {
			return fmt.Errorf("pointedby needs -o")
		}
		if *o >= idx.Objects() {
			return fmt.Errorf("-o %d out of range: %s has objects 0..%d", *o, *in, idx.Objects()-1)
		}
		printList(idx.ListPointedBy(*o))
	default:
		return fmt.Errorf("unknown op %q", *op)
	}
	return nil
}
